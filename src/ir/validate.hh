/**
 * @file
 * IR validation: the basic well-formedness checks every freshly
 * parsed program must pass, plus the strict invariants every
 * *transformed* nest must also keep (the transformation safety net's
 * per-stage gate).
 *
 * Basic checks (validateProgram/validateNest): unique induction
 * variables per nest, positive steps, declared arrays with matching
 * ranks, subscript depths equal to the nest depth, and evaluable
 * bounds/extents under the program's parameter defaults.
 *
 * Strict checks (validateProgramStrict/validateNestStrict) layer on:
 *
 *  - internal consistency of every reference: all rows of H and the
 *    offset c agree on the array's rank, every row has one column per
 *    loop (acyclic nest structure: subscripts depend on the nest's
 *    own loops only, positionally);
 *  - loop-variable scoping: no statement assigns a scalar that
 *    shadows an induction variable, and no loop bound references a
 *    name bound as an induction variable of the same nest;
 *  - subscript reach: under the program's parameter defaults, every
 *    reference stays within the declared extents plus the guard halo
 *    over the whole iteration box (the margin real unroll-and-jam
 *    legitimately touches);
 *  - optionally, step-1 loops (required right after normalization).
 *
 * Each guard has one definition here, and every mirror calls it: the
 * interpreter and the C emitter lay arrays out with arrayLayout, and
 * the linter's rules UJ003, UJ009 and UJ013 predict the strict checks
 * with refDeclaration, loopRanges, reachEscape and forEachIvMisuse.
 */

#ifndef UJAM_IR_VALIDATE_HH
#define UJAM_IR_VALIDATE_HH

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ir/loop_nest.hh"

namespace ujam
{

/**
 * Check a program for basic structural problems (see file comment).
 *
 * @return A list of human-readable problems; empty when valid.
 */
std::vector<std::string> validateProgram(const Program &program);

/** Like validateProgram but for one nest against a program's arrays. */
std::vector<std::string> validateNest(const Program &program,
                                      const LoopNest &nest);

/** Switches for the strict checks. */
struct ValidateOptions
{
    bool requireStepOne = false; //!< enforce post-normalization steps
};

/**
 * Strictly validate one nest against a program's declarations.
 *
 * @return Human-readable problems; empty when the nest is valid.
 */
std::vector<std::string> validateNestStrict(
    const Program &program, const LoopNest &nest,
    const ValidateOptions &options = {});

/** Strictly validate every nest of a program. */
std::vector<std::string> validateProgramStrict(
    const Program &program, const ValidateOptions &options = {});

/**
 * Concrete storage of one array: column-major, with a guard halo on
 * each side of every dimension so that code touching a small margin
 * past the declared extents (as real unroll-and-jammed Fortran does)
 * stays well defined. The interpreter allocates this layout and the C
 * emitter replays it, so their flat indices agree; the reach check
 * tolerates exactly the halo.
 */
struct ArrayLayout
{
    /** Width of the guard halo, in elements per side. */
    static constexpr std::int64_t haloElems = 8;

    std::vector<std::int64_t> extents; //!< per dimension, halo excluded
    std::vector<std::int64_t> strides; //!< column-major, halo included
    std::int64_t total = 1;            //!< elements, halo included
};

/**
 * Lay out one array under concrete parameter bindings.
 *
 * @throws FatalError when an extent does not evaluate or is below 1,
 *         or when the array needs more than 2^26 elements (halo
 *         included): bit-exact differential runs need real storage,
 *         and a larger array would thrash or exhaust the host.
 */
ArrayLayout arrayLayout(const ArrayDecl &decl, const ParamBindings &params);

/** [lo, hi] of each loop of a nest, outermost first. */
using LoopRanges = std::vector<std::pair<std::int64_t, std::int64_t>>;

/**
 * @return Each loop's [lo, hi] under the program's parameter
 * defaults, or nothing when some bound does not evaluate.
 */
std::optional<LoopRanges> loopRanges(const Program &program,
                                     const LoopNest &nest);

/** What the program's declarations say about one reference. */
struct RefDeclaration
{
    const ArrayDecl *decl = nullptr; //!< nullptr: undeclared array
    bool rankMatches = false;  //!< one subscript per declared dimension
    bool depthMatches = false; //!< one subscript column per loop

    /** @return True when the checks that read the declaration apply. */
    bool consistent() const { return decl && rankMatches && depthMatches; }
};

/** @return The declaration facts of a reference inside nest. */
RefDeclaration refDeclaration(const Program &program, const LoopNest &nest,
                              const ArrayRef &ref);

/** Where a reference first leaves its array's extent plus the halo. */
struct ReachEscape
{
    std::size_t dim = 0;     //!< 0-based dimension
    std::int64_t min = 0;    //!< the dimension's subscript span
    std::int64_t max = 0;
    std::int64_t extent = 0; //!< the dimension's declared extent
};

/**
 * @param decl   The reference's declaration; the reference must be
 *               consistent with it (RefDeclaration::consistent).
 * @param ranges The nest's loop ranges (loopRanges).
 * @param params Bindings the extents evaluate under.
 * @return The first dimension whose subscript span over the iteration
 *         box leaves [1 - halo, extent + halo]; nothing when none
 *         does, when the box is empty (a zero-trip loop accesses
 *         nothing) or when an extent does not evaluate first.
 */
std::optional<ReachEscape> reachEscape(const ArrayDecl &decl,
                                       const ArrayRef &ref,
                                       const LoopRanges &ranges,
                                       const ParamBindings &params);

/** How a statement misuses the name of an induction variable. */
enum class IvMisuse
{
    Assign, //!< assigns a scalar that shadows an induction variable
    Read    //!< reads a scalar named like one (it reads 0.0)
};

/**
 * Visit each misuse of an induction variable's name of nest in stmt:
 * the assignment first, then every scalar read in evaluation order.
 * Prefetch statements have none.
 */
void forEachIvMisuse(
    const LoopNest &nest, const Stmt &stmt,
    const std::function<void(IvMisuse, const std::string &)> &visit);

} // namespace ujam

#endif // UJAM_IR_VALIDATE_HH
