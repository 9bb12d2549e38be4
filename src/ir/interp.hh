/**
 * @file
 * Reference interpreter for IR programs.
 *
 * Executes a Program over concrete parameter bindings with Fortran
 * column-major arrays. Used three ways:
 *  - as the semantic oracle for transformation tests (original and
 *    transformed programs must compute the same array contents),
 *  - as the address generator feeding the cache simulator, via the
 *    access callback, and
 *  - to count dynamic loads/stores/iterations.
 *
 * Arrays are allocated in the halo-padded layout of ir/validate
 * (arrayLayout); accesses beyond the halo raise a fatal error.
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

    /** Install an access callback (pass nullptr to remove). */
    void setAccessCallback(AccessCallback callback);

    /** Execute every nest of the program, in order. */
    void run();

    /** Execute a single nest (shares array/scalar state). */
    void runNest(const LoopNest &nest);

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
     * array dimension (1-based, pre-halo values). Off by default --
     * the bookkeeping costs one map probe per access.
     */
    void trackSubscriptRanges(bool enabled);

    /**
     * @return Observed ranges per array, one entry per dimension, for
     * arrays that were actually accessed while tracking was enabled.
     */
    const std::map<std::string, std::vector<SubscriptRange>> &
    observedSubscriptRanges() const
    {
        return observed_;
    }

    /**
     * Compare array contents with another interpreter over the same
     * program shape.
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
    };

    const ArrayStorage &storage(const std::string &name) const;
    ArrayStorage &storage(const std::string &name);

    /** Flat in-array index of a subscript vector; fatal past halo. */
    std::int64_t flatIndex(const ArrayStorage &array,
                           const ArrayRef &ref) const;

    double evalExpr(const Expr &expr);
    double readRef(const ArrayRef &ref);
    void writeRef(const ArrayRef &ref, double value);
    void execStmt(const Stmt &stmt);
    void execLoops(const LoopNest &nest, std::size_t level);

    const Program &program_;
    ParamBindings params_;
    std::map<std::string, std::size_t> array_index_;
    std::vector<ArrayStorage> arrays_;
    std::map<std::string, double> scalars_;
    std::vector<std::int64_t> iv_values_;
    AccessCallback callback_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t prefetches_ = 0;
    std::uint64_t iterations_ = 0;
    std::uint64_t header_stmts_ = 0;
    bool trackRanges_ = false;
    // Mutable: flatIndex is const and shared by read and write paths;
    // observation does not change program semantics.
    mutable std::map<std::string, std::vector<SubscriptRange>> observed_;
};

} // namespace ujam

#endif // UJAM_IR_INTERP_HH
