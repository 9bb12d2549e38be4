/**
 * @file
 * Symbolic dataflow over loop nests: interval x congruence domains.
 *
 * A forward abstract interpretation over the structured nest IR. Each
 * induction variable gets an abstract value combining an interval
 * (min/max over the symbolic bounds, widened to +-infinity when a
 * bound references an unbound parameter) with a congruence fact
 * (value == residue mod modulus, the stride lattice). Subscript
 * expressions are affine in the induction variables, so their
 * abstract values follow by interval/congruence arithmetic; the flat
 * column-major index of the halo-padded layout follows from those by
 * one more affine step.
 *
 * Because the IR is a structured rectangular nest (no data-dependent
 * control flow), a single outermost-to-innermost pass is already the
 * fixpoint: the only widening needed is the jump to top when a bound
 * cannot be bounded. The linter (rules UJ015-UJ022), the dependence
 * analyzer's range-disjointness pre-filter, and the C backend's
 * static bounds certificate all consume this one engine.
 */

#ifndef UJAM_ANALYSIS_DATAFLOW_HH
#define UJAM_ANALYSIS_DATAFLOW_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ir/loop_nest.hh"
#include "linalg/int_vector.hh"

namespace ujam
{

/**
 * Version of the analysis catalog and abstract domains. Joins the
 * service's canonical request text so cached lint results are
 * invalidated whenever the analysis itself changes meaning.
 */
constexpr int kAnalysisVersion = 2;

/**
 * An integer interval [lo, hi], either side optionally unbounded.
 * An interval with both sides present and lo > hi is empty (the
 * abstract value of an expression in dead code). All arithmetic
 * saturates at the int64 range instead of wrapping.
 */
struct Interval
{
    bool hasLo = false;
    bool hasHi = false;
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    /** @return (-inf, +inf). */
    static Interval top() { return {}; }

    /** @return The singleton [v, v]. */
    static Interval point(std::int64_t v) { return {true, true, v, v}; }

    /** @return [lo, hi] (empty when lo > hi). */
    static Interval closed(std::int64_t lo, std::int64_t hi)
    {
        return {true, true, lo, hi};
    }

    /** @return The canonical empty interval. */
    static Interval empty() { return {true, true, 1, 0}; }

    bool bounded() const { return hasLo && hasHi; }
    bool isEmpty() const { return hasLo && hasHi && lo > hi; }
    bool isPoint() const { return bounded() && lo == hi; }

    /** @return True iff v is provably a member. */
    bool contains(std::int64_t v) const;

    /** @return The convex hull of two intervals. */
    static Interval hull(const Interval &a, const Interval &b);

    /** @return True iff the two intervals provably never intersect. */
    static bool disjoint(const Interval &a, const Interval &b);

    /** @return This interval plus other (interval addition). */
    Interval plus(const Interval &other) const;

    /** @return This interval shifted by a constant. */
    Interval shifted(std::int64_t delta) const;

    /** @return This interval scaled by c (c < 0 swaps the ends). */
    Interval scaled(std::int64_t c) const;

    /** @return "[2, 143]", "(-inf, 5]", "top" or "empty". */
    std::string toString() const;

    bool operator==(const Interval &other) const = default;
};

/**
 * A congruence fact: value == residue (mod modulus).
 *
 *  - modulus == 0 means the value is exactly `residue` (a constant);
 *  - modulus == 1 means no information (every integer qualifies);
 *  - modulus == m > 1 restricts to the arithmetic progression with
 *    residue in [0, m).
 */
struct Congruence
{
    std::int64_t modulus = 1;
    std::int64_t residue = 0;

    static Congruence top() { return {1, 0}; }
    static Congruence constant(std::int64_t v) { return {0, v}; }

    /** @return residue mod m, normalized; top when m == 1. */
    static Congruence stride(std::int64_t modulus, std::int64_t residue);

    bool isTop() const { return modulus == 1; }
    bool isConstant() const { return modulus == 0; }

    /** @return True iff v provably satisfies the congruence. */
    bool admits(std::int64_t v) const;

    /** @return The join (least upper bound) of two facts. */
    static Congruence join(const Congruence &a, const Congruence &b);

    Congruence plus(const Congruence &other) const;
    Congruence scaled(std::int64_t c) const;

    /** @return "= 5", "== 2 (mod 4)" or "top". */
    std::string toString() const;

    bool operator==(const Congruence &other) const = default;
};

/** The product domain element: interval x congruence. */
struct AbstractValue
{
    Interval range;
    Congruence cong;

    static AbstractValue top() { return {Interval::top(), Congruence::top()}; }
    static AbstractValue point(std::int64_t v)
    {
        return {Interval::point(v), Congruence::constant(v)};
    }

    AbstractValue plus(const AbstractValue &other) const
    {
        return {range.plus(other.range), cong.plus(other.cong)};
    }
    AbstractValue scaled(std::int64_t c) const
    {
        return {range.scaled(c), cong.scaled(c)};
    }
    AbstractValue shifted(std::int64_t delta) const
    {
        return {range.shifted(delta),
                cong.plus(Congruence::constant(delta))};
    }
};

/**
 * @return The interval of an affine Bound under the given bindings:
 * a point when every referenced parameter is bound, top as soon as
 * one is not (the widening step), and a conservative window around
 * an alignment term when its sub-bounds are not both exact.
 */
Interval boundInterval(const Bound &bound, const ParamBindings &params);

/** Per-loop dataflow facts. */
struct LoopDataflow
{
    Interval lower;   //!< interval of the lower-bound expression
    Interval upper;   //!< interval of the upper-bound expression
    Interval values;  //!< induction values over executed iterations
    Congruence cong;  //!< iv == lower (mod step) when lower is exact
    Interval trip;    //!< trip-count interval (never negative)

    /** @return True iff the loop provably runs zero iterations. */
    bool provablyEmpty() const { return trip.hasHi && trip.hi <= 0; }

    /** @return True iff the loop provably runs exactly once. */
    bool provablySingle() const
    {
        return trip.bounded() && trip.lo == 1 && trip.hi == 1;
    }
};

/** Dataflow facts for one subscript dimension of one access. */
struct DimDataflow
{
    Interval range;
    Congruence cong;
};

/** Dataflow facts for one array access. */
struct AccessDataflow
{
    std::string array;          //!< array name
    bool isWrite = false;       //!< mirrors the Access
    std::vector<DimDataflow> dims; //!< per array dimension

    /**
     * Flat element index into the halo-padded column-major block
     * (0-based, halo margins included), when every extent evaluates;
     * top otherwise. Saturating, so an overflowing layout shows up as
     * a huge-but-ordered bound instead of wrapping.
     */
    Interval flat;
    Congruence flatCong;

    /**
     * Flat-index delta per innermost-loop iteration (0 when the
     * reference is invariant in the innermost loop); nullopt when the
     * layout strides are unknown.
     */
    std::optional<std::int64_t> innerStride;

    bool inBounds = false; //!< every dim provably within [1, extent]
    bool inHalo = false;   //!< every dim within [1-halo, extent+halo]
};

/**
 * The dataflow result for one nest: per-loop abstract induction
 * values, per-access subscript facts for the body (parallel to
 * LoopNest::accesses()) and for the pre/postheader references
 * (conservatively analyzed with the full innermost range).
 */
class NestDataflow
{
  public:
    /**
     * Run the abstract interpretation.
     *
     * @param program    Owning program (array extents).
     * @param nest       The nest to analyze.
     * @param params     Parameter bindings; unbound parameters widen
     *                   the affected facts to top.
     *
     * The inHalo facts and the flat layout use the interpreter's
     * guard halo (ArrayLayout::haloElems).
     */
    NestDataflow(const Program &program, const LoopNest &nest,
                 const ParamBindings &params);

    const std::vector<LoopDataflow> &loops() const { return loops_; }

    /** Body access facts, same order as LoopNest::accesses(). */
    const std::vector<AccessDataflow> &accesses() const { return accesses_; }

    /** Pre/postheader access facts (order: preheader, postheader). */
    const std::vector<AccessDataflow> &headerAccesses() const
    {
        return headers_;
    }

    /** @return True iff the nest provably executes no iteration. */
    bool provablyEmpty() const;

    /** @return True iff every access (headers included) is provably
     * within extent + halo -- the C backend's bounds certificate. */
    bool allInHalo() const;

    /**
     * @return The interval of subscript dimension d of ref after
     * unroll-and-jam by the given per-loop amounts: copy j of loop k
     * shifts iv_k by j * step_k, j in [0, unroll_k], so the interval
     * grows forward by coeff * step * unroll per loop.
     */
    Interval unrolledDimRange(const ArrayRef &ref, std::size_t d,
                              const IntVector &unroll) const;

    /** @return Facts for an arbitrary reference in this nest's
     * iteration space (used for fringe/header reasoning). */
    AccessDataflow analyzeRef(const ArrayRef &ref, bool is_write) const;

  private:
    const Program &program_;
    const LoopNest &nest_;
    ParamBindings params_;
    std::vector<LoopDataflow> loops_;
    std::vector<AccessDataflow> accesses_;
    std::vector<AccessDataflow> headers_;
};

// Saturating int64 helpers, shared with the dependence pre-filter.
std::int64_t satAdd(std::int64_t a, std::int64_t b);
std::int64_t satMul(std::int64_t a, std::int64_t b);

} // namespace ujam

#endif // UJAM_ANALYSIS_DATAFLOW_HH
