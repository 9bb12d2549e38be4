#include "transform/normalize.hh"

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** Substitute i_k = lb + (i_k' - 1) * s into every reference. */
Stmt
substituteStmt(const Stmt &stmt, std::size_t k, std::int64_t lb,
               std::int64_t s)
{
    if (stmt.isPrefetch())
        return Stmt::prefetch(stmt.prefetchRef().unitStepped(k, lb, s));
    ExprPtr rhs = stmt.rhs()->rewriteArrayReads(
        [&](const ArrayRef &ref) {
            return Expr::arrayRead(ref.unitStepped(k, lb, s));
        });
    if (stmt.lhsIsArray())
        return Stmt::assignArray(stmt.lhsRef().unitStepped(k, lb, s), rhs);
    return Stmt::assignScalar(stmt.lhsScalar(), rhs);
}

} // namespace

NormalizeResult
normalizeNest(const LoopNest &nest)
{
    UJAM_ASSERT(nest.preheader().empty() && nest.postheader().empty(),
                "normalize before scalar replacement only");
    NormalizeResult result;
    result.nest = nest;
    result.normalized.assign(nest.depth(), false);
    result.all_step_one = true;

    for (std::size_t k = 0; k < nest.depth(); ++k) {
        Loop &loop = result.nest.loop(k);
        if (loop.step == 1)
            continue;
        if (!loop.lower.isConstant()) {
            result.all_step_one = false;
            continue; // cannot fold a symbolic origin into offsets
        }
        std::int64_t lb = loop.lower.evaluate({});
        std::int64_t s = loop.step;

        // Trip count: floor((ub - lb)/s) + 1. With a constant upper
        // bound this folds; a symbolic one only normalizes cleanly
        // when (ub - lb) is a multiple of s cannot be proven, so use
        // the conservative alignedUpper form evaluated at runtime:
        // new ub = trip = (align(lb, ub, s) - lb)/s + 1 expressed via
        // the aligned bound. For constant ub compute directly.
        if (loop.upper.isConstant()) {
            std::int64_t ub = loop.upper.evaluate({});
            std::int64_t trip = ub < lb ? 0 : (ub - lb) / s + 1;
            loop.upper = Bound::constant(trip);
        } else {
            result.all_step_one = false;
            continue;
        }
        loop.lower = Bound::constant(1);
        loop.step = 1;

        for (Stmt &stmt : result.nest.body())
            stmt = substituteStmt(stmt, k, lb, s);
        result.normalized[k] = true;
    }
    return result;
}

} // namespace ujam
