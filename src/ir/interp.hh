/**
 * @file
 * Reference interpreter for IR programs.
 *
 * Executes a Program over concrete parameter bindings with Fortran
 * column-major arrays. Used three ways:
 *  - as the semantic oracle for transformation tests (original and
 *    transformed programs must compute the same array contents),
 *  - as the address generator feeding the cache simulator, via an
 *    access sink handed to runNest (or the access callback), and
 *  - to count dynamic loads/stores/iterations.
 *
 * Arrays are allocated in the halo-padded layout of ir/validate
 * (arrayLayout); accesses beyond the halo raise a fatal error.
 *
 * runNest does not walk the IR per access. It lowers the nest once
 * into a flat, slot-bound form and executes that:
 *  - each array reference is bound to its array's storage, with a
 *    halo-shifted offset, span and stride per dimension and only the
 *    non-zero (loop level, coefficient) terms of its subscript rows;
 *  - each scalar has a slot in a vector, shared by every nest of the
 *    run; a slot reads 0.0 until it is written;
 *  - each right-hand side is a postfix op list evaluated left to
 *    right, so loads happen in source order and the same IEEE
 *    operations run in the same order as a walk of the tree would;
 *  - each loop's bounds are evaluated once, at its first entry.
 *
 * Still checked per access: every dimension's halo (fatal; a prefetch
 * past the halo is dropped silently instead, like a non-faulting
 * prefetch instruction). Checked at a reference's first access, not
 * when lowering, so a reference that never executes never fails: that
 * its array is declared (fatal) and has its rank (panic). Bounds are
 * evaluated lazily for the same reason: a loop under a zero-trip loop
 * is never entered, so neither `step < 1` nor an unbound parameter in
 * its bounds may fail. They depend on parameters only, so the first
 * entry's values hold for every later entry.
 */

#ifndef UJAM_IR_INTERP_HH
#define UJAM_IR_INTERP_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ir/loop_nest.hh"
#include "ir/validate.hh"

namespace ujam
{

/** Kind of a dynamic memory access reported to the callback. */
enum class MemAccessKind
{
    Read,
    Write,
    Prefetch //!< touches the line; never stalls, returns no value
};

/**
 * Interprets a Program.
 */
class Interpreter
{
  public:
    /**
     * Notification for every dynamic array access.
     * @param address Element address in the global element space.
     * @param kind    Read, Write or Prefetch.
     */
    using AccessCallback =
        std::function<void(std::int64_t address, MemAccessKind kind)>;

    /**
     * Construct and allocate arrays.
     *
     * @param program   The program; array extents are evaluated now.
     * @param overrides Parameter values overriding program defaults.
     */
    explicit Interpreter(const Program &program,
                         const ParamBindings &overrides = {});

    /** Fill every array with deterministic values in [1, 2). */
    void seedArrays(std::uint64_t seed);

    /** Every array's contents, declaration order, halos included. */
    using ArrayImage = std::vector<double>;

    /** @return A copy of every array's current contents. */
    ArrayImage arrayImage() const;

    /**
     * Overwrite every array from an image of an interpreter over the
     * same declarations and parameters: a copy where seedArrays
     * hashes every element.
     */
    void loadArrayImage(const ArrayImage &image);

    /** Install an access callback (pass nullptr to remove). */
    void setAccessCallback(AccessCallback callback);

    /** Execute every nest of the program, in order. */
    void run();

    /** Execute a single nest (shares array/scalar state). */
    void runNest(const LoopNest &nest);

    /**
     * Execute a single nest, handing every access to sink(address,
     * kind) instead of the callback: a caller that sees every access
     * (the cache simulator) pays no std::function call per access.
     */
    template <typename Sink>
    void runNest(const LoopNest &nest, Sink &&sink);

    /** @return The contents of the named array (including halo). */
    const std::vector<double> &arrayData(const std::string &name) const;

    /** @return Element (1-based subscripts) of the named array. */
    double element(const std::string &name,
                   const std::vector<std::int64_t> &subscripts) const;

    /** @return Current value of a scalar variable (0.0 if unset). */
    double scalar(const std::string &name) const;

    /** @return The resolved parameter bindings. */
    const ParamBindings &params() const { return params_; }

    /** Dynamic statistics. */
    std::uint64_t loadCount() const { return loads_; }
    std::uint64_t storeCount() const { return stores_; }
    std::uint64_t prefetchCount() const { return prefetches_; }
    std::uint64_t iterationCount() const { return iterations_; }
    /** Pre/postheader statements executed (once per outer iteration). */
    std::uint64_t headerStmtCount() const { return header_stmts_; }

    /** Observed min/max of one subscript dimension of one array. */
    struct SubscriptRange
    {
        std::int64_t min = 0;
        std::int64_t max = 0;
    };

    /**
     * Record, for every executed access, the min/max subscript per
     * array dimension (1-based, pre-halo values). Off by default.
     */
    void trackSubscriptRanges(bool enabled);

    /**
     * @return Observed ranges per array, one entry per dimension, for
     * arrays that were actually accessed while tracking was enabled.
     */
    std::map<std::string, std::vector<SubscriptRange>>
    observedSubscriptRanges() const;

    /**
     * Compare array contents with another interpreter over the same
     * program shape. A finite element matches within the tolerance; a
     * non-finite one matches only the same value (the same infinity,
     * or NaN against NaN).
     *
     * @param other   The other interpreter.
     * @param rel_tol Relative tolerance (reassociation headroom).
     * @return Empty string on match, else a description of the first
     *         mismatch.
     */
    std::string compareArrays(const Interpreter &other,
                              double rel_tol) const;

  private:
    struct ArrayStorage : ArrayLayout
    {
        std::string name;
        std::int64_t base = 0;              //!< global element base
        std::vector<double> data;           //!< includes halo margins
        /** Per-dimension ranges; empty until a tracked access. */
        std::vector<SubscriptRange> observed;
    };

    /** One non-zero term of a subscript row. */
    struct Term
    {
        std::size_t level;  //!< loop level of the induction variable
        std::int64_t coeff; //!< its coefficient
    };

    /** One dimension of a bound reference. */
    struct Dim
    {
        std::int64_t shifted; //!< offset - 1 + halo: 0 at the halo's start
        std::int64_t span;    //!< extent + 2 * halo
        std::int64_t stride;
        std::size_t firstTerm, endTerm; //!< into Lowered::terms
    };

    /** An array reference bound to its storage. */
    struct Ref
    {
        const ArrayRef *source;
        ArrayStorage *array; //!< null when the array is undeclared
        bool bound;          //!< declared, with the reference's rank
        std::size_t firstDim, endDim; //!< into Lowered::dims
    };

    /** One postfix instruction. */
    struct Op
    {
        enum class Code : std::uint8_t
        {
            Constant,
            Scalar,
            Load,
            Add,
            Sub,
            Mul,
            Div
        };
        Code code;
        std::size_t index; //!< Scalar: slot; Load: into Lowered::refs
        double value;      //!< Constant
    };

    /** An assignment (ops, then a store) or a prefetch. */
    struct LoweredStmt
    {
        enum class Kind : std::uint8_t
        {
            StoreArray,
            StoreScalar,
            Prefetch
        };
        Kind kind;
        std::size_t firstOp, endOp; //!< the right-hand side
        std::size_t target; //!< Lowered::refs index, or scalar slot
    };

    /** A loop whose bounds are evaluated at its first entry. */
    struct LoweredLoop
    {
        const Loop *source;
        bool entered = false;
        std::int64_t lo = 0;
        std::int64_t hi = 0;
    };

    /** One nest in executable form. */
    struct Lowered
    {
        std::vector<LoweredLoop> loops;
        std::vector<LoweredStmt> preheader, body, postheader;
        std::vector<Op> ops;
        std::vector<Ref> refs;
        std::vector<Dim> dims;
        std::vector<Term> terms;
        std::vector<double> stack; //!< sized for the deepest RHS
    };

    const ArrayStorage &storage(const std::string &name) const;

    /** Lower nest and size the induction variables it reads. */
    Lowered lower(const LoopNest &nest);
    LoweredStmt lowerStmt(Lowered &lowered, const Stmt &stmt);
    /** Append expr's postfix ops; @return the stack depth it needs. */
    std::size_t lowerExpr(Lowered &lowered, const Expr &expr);
    /** Bind ref; @return its index in lowered.refs. */
    std::size_t lowerRef(Lowered &lowered, const ArrayRef &ref);
    /** @return name's slot in scalars_, made (holding 0.0) if new. */
    std::size_t scalarSlot(const std::string &name);

    /** First entry: check the step, evaluate the bounds. */
    void enterLoop(LoweredLoop &loop) const;
    /** Throw for an unbound reference: undeclared or wrong rank. */
    [[noreturn]] void failAccess(const Ref &ref) const;
    [[noreturn]] void outsideHalo(const Ref &ref, std::size_t dim,
                                  std::int64_t shifted) const;
    void observe(const Ref &ref, std::size_t dim, std::int64_t shifted);

    /** Flat in-array index of a bound reference; fatal past halo. */
    std::int64_t flatIndex(const Lowered &lowered, const Ref &ref);

    template <typename Sink>
    void execLevel(Lowered &lowered, std::size_t level, Sink &sink);
    template <typename Sink>
    void execStmt(Lowered &lowered, const LoweredStmt &stmt, Sink &sink);
    template <typename Sink>
    double load(const Lowered &lowered, const Ref &ref, Sink &sink);

    const Program &program_;
    ParamBindings params_;
    std::map<std::string, std::size_t> array_index_;
    std::vector<ArrayStorage> arrays_;
    std::map<std::string, std::size_t> scalar_slots_;
    std::vector<double> scalars_;
    std::vector<std::int64_t> ivs_;
    AccessCallback callback_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t prefetches_ = 0;
    std::uint64_t iterations_ = 0;
    std::uint64_t header_stmts_ = 0;
    bool trackRanges_ = false;
};

inline std::int64_t
Interpreter::flatIndex(const Lowered &lowered, const Ref &ref)
{
    if (!ref.bound)
        failAccess(ref);
    std::int64_t index = 0;
    for (std::size_t d = ref.firstDim; d < ref.endDim; ++d) {
        const Dim &dim = lowered.dims[d];
        std::int64_t shifted = dim.shifted;
        for (std::size_t t = dim.firstTerm; t < dim.endTerm; ++t)
            shifted += lowered.terms[t].coeff * ivs_[lowered.terms[t].level];
        if (shifted < 0 || shifted >= dim.span)
            outsideHalo(ref, d - ref.firstDim, shifted);
        if (trackRanges_)
            observe(ref, d - ref.firstDim, shifted);
        index += shifted * dim.stride;
    }
    return index;
}

template <typename Sink>
double
Interpreter::load(const Lowered &lowered, const Ref &ref, Sink &sink)
{
    std::int64_t index = flatIndex(lowered, ref);
    ++loads_;
    sink(ref.array->base + index, MemAccessKind::Read);
    return ref.array->data[static_cast<std::size_t>(index)];
}

template <typename Sink>
void
Interpreter::execStmt(Lowered &lowered, const LoweredStmt &stmt,
                      Sink &sink)
{
    if (stmt.kind == LoweredStmt::Kind::Prefetch) {
        const Ref &ref = lowered.refs[stmt.target];
        if (!ref.bound)
            failAccess(ref);
        std::int64_t index = 0;
        bool in_range = true;
        for (std::size_t d = ref.firstDim; d < ref.endDim && in_range;
             ++d) {
            const Dim &dim = lowered.dims[d];
            std::int64_t shifted = dim.shifted;
            for (std::size_t t = dim.firstTerm; t < dim.endTerm; ++t)
                shifted +=
                    lowered.terms[t].coeff * ivs_[lowered.terms[t].level];
            in_range = shifted >= 0 && shifted < dim.span;
            index += shifted * dim.stride;
        }
        ++prefetches_;
        if (in_range)
            sink(ref.array->base + index, MemAccessKind::Prefetch);
        return;
    }

    double *top = lowered.stack.data(); // one past the topmost value
    for (std::size_t i = stmt.firstOp; i < stmt.endOp; ++i) {
        const Op &op = lowered.ops[i];
        switch (op.code) {
          case Op::Code::Constant:
            *top++ = op.value;
            break;
          case Op::Code::Scalar:
            *top++ = scalars_[op.index];
            break;
          case Op::Code::Load:
            *top++ = load(lowered, lowered.refs[op.index], sink);
            break;
          case Op::Code::Add:
            --top;
            top[-1] = top[-1] + top[0];
            break;
          case Op::Code::Sub:
            --top;
            top[-1] = top[-1] - top[0];
            break;
          case Op::Code::Mul:
            --top;
            top[-1] = top[-1] * top[0];
            break;
          case Op::Code::Div:
            --top;
            top[-1] = top[-1] / top[0];
            break;
        }
    }
    double value = top[-1];

    if (stmt.kind == LoweredStmt::Kind::StoreScalar) {
        scalars_[stmt.target] = value;
        return;
    }
    const Ref &ref = lowered.refs[stmt.target];
    std::int64_t index = flatIndex(lowered, ref);
    ++stores_;
    sink(ref.array->base + index, MemAccessKind::Write);
    ref.array->data[static_cast<std::size_t>(index)] = value;
}

template <typename Sink>
void
Interpreter::execLevel(Lowered &lowered, std::size_t level, Sink &sink)
{
    LoweredLoop &loop = lowered.loops[level];
    if (!loop.entered)
        enterLoop(loop);
    const std::int64_t lo = loop.lo;
    const std::int64_t hi = loop.hi;
    const std::int64_t step = loop.source->step;
    if (level + 1 < lowered.loops.size()) {
        for (std::int64_t v = lo; v <= hi; v += step) {
            ivs_[level] = v;
            execLevel(lowered, level + 1, sink);
        }
        return;
    }
    // The innermost loop. Its preheader runs once per entry with the
    // induction variable at the lower bound, its postheader at the
    // last value; neither runs when the loop has no iterations.
    if (lo > hi)
        return;
    ivs_[level] = lo;
    for (const LoweredStmt &stmt : lowered.preheader) {
        execStmt(lowered, stmt, sink);
        ++header_stmts_;
    }
    std::int64_t last = lo;
    for (std::int64_t v = lo; v <= hi; v += step) {
        ivs_[level] = v;
        last = v;
        ++iterations_;
        for (const LoweredStmt &stmt : lowered.body)
            execStmt(lowered, stmt, sink);
    }
    ivs_[level] = last;
    for (const LoweredStmt &stmt : lowered.postheader) {
        execStmt(lowered, stmt, sink);
        ++header_stmts_;
    }
}

template <typename Sink>
void
Interpreter::runNest(const LoopNest &nest, Sink &&sink)
{
    Lowered lowered = lower(nest);
    if (!lowered.loops.empty()) {
        execLevel(lowered, 0, sink);
        return;
    }
    // A depth-0 nest runs each of its statement lists once.
    for (const std::vector<LoweredStmt> *stmts :
         {&lowered.preheader, &lowered.body, &lowered.postheader}) {
        for (const LoweredStmt &stmt : *stmts)
            execStmt(lowered, stmt, sink);
    }
}

} // namespace ujam

#endif // UJAM_IR_INTERP_HH
