/**
 * @file
 * The rule catalog (UJ001..UJ022).
 *
 * Each rule predicts, without running a transform or the interpreter,
 * a condition the pipeline would either trip over (error: the safety
 * net would contain a fault and roll the nest back), model poorly
 * (warning), or merely decline to optimize (note). The error rules
 * mirror the exact guards of the transform/validator/oracle stack:
 * UJ001 the unroll stage's perfect-nest assertion, UJ003/UJ004/UJ009
 * the structural and reach validators, UJ010 the jam-order semantics
 * the differential oracle checks. UJ003, UJ009 and UJ013 call the
 * strict validator's own checks (ir/validate) and differ from it only
 * in coverage (the validator also checks prefetch references, UJ009
 * only body accesses), dedup and wording.
 */

#include <cstdlib>
#include <map>
#include <set>

#include "analysis/rule.hh"
#include "core/optimizer.hh"
#include "ir/validate.hh"
#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** Magnitude past which subscript arithmetic is overflow-prone. */
constexpr std::int64_t kOverflowRisk = std::int64_t(1) << 31;

SourceLoc
nestLoc(const LoopNest &nest)
{
    return nest.depth() > 0 ? nest.loop(0).loc : SourceLoc{};
}

/**
 * True when the statement is a scalar self-reduction: s = s + ...
 * with the accumulator somewhere in a top-level chain of adds.
 */
bool
isScalarReduction(const Stmt &stmt)
{
    if (stmt.isPrefetch() || stmt.lhsIsArray())
        return false;
    const std::string &name = stmt.lhsScalar();
    std::function<bool(const ExprPtr &)> in_add_chain =
        [&](const ExprPtr &expr) -> bool {
        if (!expr)
            return false;
        if (expr->kind() == Expr::Kind::Scalar)
            return expr->scalarName() == name;
        if (expr->kind() == Expr::Kind::Binary &&
            expr->op() == BinOp::Add) {
            return in_add_chain(expr->lhs()) || in_add_chain(expr->rhs());
        }
        return false;
    };
    return in_add_chain(stmt.rhs());
}

// --- UJ001: non-perfect nest ----------------------------------------

class PerfectNestRule : public Rule
{
  public:
    const char *id() const override { return "UJ001"; }
    const char *
    summary() const override
    {
        return "preheader/postheader statements make the nest "
               "non-perfect; the unroll stage refuses it";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const LoopNest &nest = ctx.nest();
        if (nest.preheader().empty() && nest.postheader().empty())
            return;
        const Stmt &first = nest.preheader().empty()
                                ? nest.postheader().front()
                                : nest.preheader().front();
        SourceLoc loc = first.loc().known() ? first.loc() : nestLoc(nest);
        out.push_back(ctx.finding(
            id(), defaultSeverity(), loc,
            concat("nest is not perfect: ", nest.preheader().size(),
                   " preheader and ", nest.postheader().size(),
                   " postheader statement(s); unroll-and-jam requires "
                   "a perfect nest and the pipeline would contain a "
                   "panic here")));
    }
};

// --- UJ002: nest too shallow ----------------------------------------

class ShallowNestRule : public Rule
{
  public:
    const char *id() const override { return "UJ002"; }
    const char *
    summary() const override
    {
        return "nest of depth < 2 cannot be unrolled-and-jammed";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        if (ctx.nest().depth() >= 2)
            return;
        out.push_back(ctx.finding(
            id(), defaultSeverity(), nestLoc(ctx.nest()),
            concat("nest has depth ", ctx.nest().depth(),
                   "; the innermost loop is never unrolled, so "
                   "unroll-and-jam needs depth >= 2")));
    }
};

// --- UJ003: undeclared array / rank / subscript depth ---------------

class DeclarationsRule : public Rule
{
  public:
    const char *id() const override { return "UJ003"; }
    const char *
    summary() const override
    {
        return "reference to an undeclared array, or with the wrong "
               "rank or subscript depth";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        std::set<std::string> reported;
        auto check_ref = [&](const ArrayRef &ref) {
            if (!reported.insert(ref.array() + "#" + ref.toString())
                     .second) {
                return;
            }
            RefDeclaration facts =
                refDeclaration(ctx.program(), ctx.nest(), ref);
            if (!facts.decl) {
                out.push_back(ctx.finding(
                    id(), defaultSeverity(), ref.loc(),
                    concat("reference to undeclared array '",
                           ref.array(), "'")));
                return;
            }
            if (!facts.rankMatches) {
                out.push_back(ctx.finding(
                    id(), defaultSeverity(), ref.loc(),
                    concat("array '", ref.array(), "' has rank ",
                           facts.decl->extents.size(),
                           " but is referenced with ", ref.dims(),
                           " subscripts")));
            }
            if (!facts.depthMatches) {
                out.push_back(ctx.finding(
                    id(), defaultSeverity(), ref.loc(),
                    concat("reference to '", ref.array(),
                           "' has subscript depth ", ref.depth(),
                           " in a depth-", ctx.nest().depth(),
                           " nest")));
            }
        };
        for (const Access &access : ctx.accesses())
            check_ref(access.ref);
        for (const Stmt &stmt : ctx.nest().preheader())
            stmt.forEachAccess(
                [&](const ArrayRef &ref, bool) { check_ref(ref); });
        for (const Stmt &stmt : ctx.nest().postheader())
            stmt.forEachAccess(
                [&](const ArrayRef &ref, bool) { check_ref(ref); });
    }
};

// --- UJ004: unevaluable bounds and extents --------------------------

class EvaluableBoundsRule : public Rule
{
  public:
    const char *id() const override { return "UJ004"; }
    const char *
    summary() const override
    {
        return "loop bound or array extent does not evaluate under "
               "the program's parameter defaults";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        for (const Loop &loop : ctx.nest().loops()) {
            for (const Bound *bound : {&loop.lower, &loop.upper}) {
                try {
                    bound->evaluate(ctx.program().paramDefaults());
                } catch (const FatalError &err) {
                    out.push_back(ctx.finding(
                        id(), defaultSeverity(), loop.loc,
                        concat("bound of loop '", loop.iv,
                               "' does not evaluate: ", err.what())));
                }
            }
        }
        std::set<std::string> seen;
        for (const Access &access : ctx.accesses()) {
            const std::string &name = access.ref.array();
            if (!ctx.program().hasArray(name) || !seen.insert(name).second)
                continue;
            for (const Bound &extent :
                 ctx.program().array(name).extents) {
                try {
                    extent.evaluate(ctx.program().paramDefaults());
                } catch (const FatalError &err) {
                    out.push_back(ctx.finding(
                        id(), defaultSeverity(), access.ref.loc(),
                        concat("extent of array '", name,
                               "' does not evaluate: ", err.what())));
                }
            }
        }
    }
};

// --- UJ005: non-rectangular nest ------------------------------------

class RectangularBoundsRule : public Rule
{
  public:
    const char *id() const override { return "UJ005"; }
    const char *
    summary() const override
    {
        return "loop bound references an induction variable "
               "(non-rectangular nest)";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        std::set<std::string> ivs;
        for (const Loop &loop : ctx.nest().loops())
            ivs.insert(loop.iv);
        for (const Loop &loop : ctx.nest().loops()) {
            std::vector<std::string> names;
            loop.lower.collectParamNames(names);
            loop.upper.collectParamNames(names);
            std::set<std::string> flagged;
            for (const std::string &name : names) {
                if (ivs.count(name) && flagged.insert(name).second) {
                    out.push_back(ctx.finding(
                        id(), defaultSeverity(), loop.loc,
                        concat("bound of loop '", loop.iv,
                               "' references induction variable '",
                               name,
                               "'; the iteration space must be "
                               "rectangular")));
                }
            }
        }
    }
};

// --- UJ006: zero-trip loops -----------------------------------------

class ZeroTripRule : public Rule
{
  public:
    const char *id() const override { return "UJ006"; }
    const char *
    summary() const override
    {
        return "loop has no iterations under the parameter defaults";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const auto &ranges = ctx.ranges();
        if (!ranges)
            return;
        for (std::size_t k = 0; k < ctx.nest().depth(); ++k) {
            auto [lo, hi] = (*ranges)[k];
            if (hi < lo) {
                out.push_back(ctx.finding(
                    id(), defaultSeverity(), ctx.nest().loop(k).loc,
                    concat("loop '", ctx.nest().loop(k).iv,
                           "' runs from ", lo, " to ", hi,
                           ": zero iterations under the parameter "
                           "defaults, so the balance model is "
                           "meaningless for this nest")));
            }
        }
    }
};

// --- UJ007: overflow-prone magnitudes -------------------------------

class OverflowRiskRule : public Rule
{
  public:
    const char *id() const override { return "UJ007"; }
    const char *
    summary() const override
    {
        return "bound or extent magnitude risks 64-bit overflow in "
               "subscript arithmetic";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const auto &ranges = ctx.ranges();
        if (!ranges)
            return;
        for (std::size_t k = 0; k < ctx.nest().depth(); ++k) {
            auto [lo, hi] = (*ranges)[k];
            if (std::abs(lo) > kOverflowRisk ||
                std::abs(hi) > kOverflowRisk) {
                out.push_back(ctx.finding(
                    id(), defaultSeverity(), ctx.nest().loop(k).loc,
                    concat("loop '", ctx.nest().loop(k).iv,
                           "' spans [", lo, ", ", hi,
                           "]; magnitudes past 2^31 risk overflow in "
                           "the dependence tests' 64-bit subscript "
                           "arithmetic")));
            }
        }
    }
};

// --- UJ008: coupled (non-SIV) subscripts ----------------------------

class SivSeparableRule : public Rule
{
  public:
    const char *id() const override { return "UJ008"; }
    const char *
    summary() const override
    {
        return "coupled subscripts are outside the SIV-separable "
               "model; the unroll tables degrade";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        std::set<std::string> reported;
        for (const Access &access : ctx.accesses()) {
            const ArrayRef &ref = access.ref;
            if (ref.depth() != ctx.nest().depth())
                continue; // UJ003 territory
            if (ref.isSivSeparable())
                continue;
            if (!reported.insert(ref.array() + "#" + ref.toString())
                     .second) {
                continue;
            }
            out.push_back(ctx.finding(
                id(), defaultSeverity(), ref.loc(),
                concat("reference ", ref.toString(ctx.nest().ivNames()),
                       " has coupled subscripts (not SIV separable); "
                       "the reuse model cannot rank this nest and the "
                       "optimizer will leave it untransformed")));
        }
    }
};

// --- UJ009: subscript reach -----------------------------------------

class ReachRule : public Rule
{
  public:
    const char *id() const override { return "UJ009"; }
    const char *
    summary() const override
    {
        return "reference reaches outside the declared extent plus "
               "the interpreter's halo";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const auto &ranges = ctx.ranges();
        if (!ranges)
            return;
        std::set<std::string> reported;
        for (const Access &access : ctx.accesses()) {
            const ArrayRef &ref = access.ref;
            RefDeclaration facts =
                refDeclaration(ctx.program(), ctx.nest(), ref);
            if (!facts.consistent())
                continue; // UJ003 territory
            if (!reported.insert(ref.array() + "#" + ref.toString())
                     .second) {
                continue;
            }
            // Nothing for a zero-trip nest (UJ006) or an extent that
            // does not evaluate (UJ004).
            std::optional<ReachEscape> escape =
                reachEscape(*facts.decl, ref, *ranges,
                            ctx.program().paramDefaults());
            if (!escape)
                continue;
            out.push_back(ctx.finding(
                id(), defaultSeverity(), ref.loc(),
                concat("reference ", ref.toString(ctx.nest().ivNames()),
                       " dimension ", escape->dim + 1, " spans [",
                       escape->min, ", ", escape->max,
                       "] outside extent ", escape->extent, " + halo ",
                       ArrayLayout::haloElems,
                       "; the strict validator would reject every "
                       "transformed version of this nest")));
        }
    }
};

// --- UJ010: loop-carried scalars ------------------------------------

class CarriedScalarRule : public Rule
{
  public:
    const char *id() const override { return "UJ010"; }
    const char *
    summary() const override
    {
        return "loop-carried scalar dependence is invisible to the "
               "dependence graph and breaks jamming";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const std::vector<Stmt> &body = ctx.nest().body();

        std::map<std::string, std::size_t> first_write;
        for (std::size_t s = 0; s < body.size(); ++s) {
            if (!body[s].isPrefetch() && !body[s].lhsIsArray())
                first_write.try_emplace(body[s].lhsScalar(), s);
        }

        std::set<std::string> flagged;
        for (std::size_t s = 0; s < body.size(); ++s) {
            if (body[s].isPrefetch())
                continue;
            forEachScalarRead(body[s].rhs(), [&](const std::string &name) {
                auto it = first_write.find(name);
                if (it == first_write.end() || s > it->second)
                    return; // not written, or read after the write
                if (!flagged.insert(name).second)
                    return;
                if (s == it->second && isScalarReduction(body[s])) {
                    out.push_back(ctx.finding(
                        id(), LintSeverity::Note, body[s].loc(),
                        concat("scalar reduction on '", name,
                               "' is reassociated by unroll-and-jam "
                               "(numerically tolerated, checked at "
                               "relative tolerance by the oracle)")));
                    return;
                }
                out.push_back(ctx.finding(
                    id(), defaultSeverity(), body[s].loc(),
                    concat("scalar '", name,
                           "' is read at or before its first write in "
                           "the body: the loop-carried value is "
                           "invisible to the dependence graph, and "
                           "jamming unrolled copies would read the "
                           "wrong iteration's value")));
            });
        }
    }
};

// --- UJ011: dependence-blocked unrolling ----------------------------

class BlockedUnrollRule : public Rule
{
  public:
    const char *id() const override { return "UJ011"; }
    const char *
    summary() const override
    {
        return "dependence edge caps or forbids unrolling a loop "
               "(explanation of rejected candidates)";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const LoopNest &nest = ctx.nest();
        if (nest.depth() < 2)
            return; // UJ002 territory
        const IntVector &bounds = ctx.safeBounds();

        // One note per restricted level, carrying the tightest edge.
        for (std::size_t level = 0; level + 1 < nest.depth(); ++level) {
            if (bounds[level] >= ctx.options().maxUnroll)
                continue;
            const UnrollConstraint *tightest = nullptr;
            for (const UnrollConstraint &c : ctx.constraints()) {
                if (c.level != level)
                    continue;
                if (!tightest || c.limit < tightest->limit ||
                    (c.outerCarrier && !tightest->outerCarrier)) {
                    tightest = &c;
                }
            }
            if (!tightest)
                continue;
            out.push_back(describe(ctx, level, *tightest,
                                   bounds[level]));
        }
    }

  private:
    LintDiagnostic
    describe(RuleContext &ctx, std::size_t level,
             const UnrollConstraint &constraint,
             std::int64_t bound) const
    {
        const LoopNest &nest = ctx.nest();
        const Dependence &edge =
            ctx.deps().edges()[constraint.edgeIndex];
        const std::vector<Access> &accesses = ctx.accesses();
        const ArrayRef &src = accesses[edge.src].ref;
        const ArrayRef &dst = accesses[edge.dst].ref;
        std::vector<std::string> ivs = nest.ivNames();

        std::string dirs = "(";
        for (std::size_t k = 0; k < edge.dirs.size(); ++k) {
            if (k)
                dirs += ",";
            dirs += depDirSymbol(edge.dirs[k]);
        }
        dirs += ")";

        std::string reason;
        if (constraint.outerCarrier) {
            reason = "an outer loop can carry the pair while this "
                     "level points backward, and the fringe nest "
                     "would run too late (fringe-hoist hazard)";
        } else if (bound == 0) {
            reason = "jamming any amount would reverse it in an "
                     "inner loop";
        } else {
            reason = concat("its carried distance limits the unroll "
                            "amount to ", bound);
        }
        LintDiagnostic diag = ctx.finding(
            id(), defaultSeverity(), src.loc(),
            concat("loop '", nest.loop(level).iv, "' is ",
                   bound == 0 ? std::string("not unrollable")
                              : concat("unrollable only up to ", bound),
                   ": the ", depKindName(edge.kind), " dependence ",
                   src.toString(ivs), " -> ", dst.toString(ivs), " ",
                   dirs, " means ", reason));
        return diag;
    }
};

// --- UJ012: writes across uniformly generated sets ------------------

class ForeignWriteRule : public Rule
{
  public:
    const char *id() const override { return "UJ012"; }
    const char *
    summary() const override
    {
        return "a written array is referenced under several subscript "
               "matrices; cross-set flow is outside the UGS model";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        // Count sets and find a written set per array.
        std::map<std::string, std::size_t> sets_of;
        for (const UniformlyGeneratedSet &set : ctx.ugs())
            ++sets_of[set.array];

        std::set<std::string> flagged;
        for (const Access &access : ctx.accesses()) {
            if (!access.isWrite)
                continue;
            auto it = sets_of.find(access.ref.array());
            if (it == sets_of.end() || it->second < 2)
                continue;
            if (!flagged.insert(access.ref.array()).second)
                continue;
            out.push_back(ctx.finding(
                id(), defaultSeverity(), access.ref.loc(),
                concat("array '", access.ref.array(),
                       "' is written while its references fall into ",
                       it->second,
                       " uniformly generated sets; flow between sets "
                       "is invisible to the RRS/register tables, so "
                       "the predicted balance may be off")));
        }
    }
};

// --- UJ013: induction-variable misuse in statements -----------------

class IvMisuseRule : public Rule
{
  public:
    const char *id() const override { return "UJ013"; }
    const char *
    summary() const override
    {
        return "statement assigns or reads a scalar named like an "
               "induction variable";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        auto scan = [&](const std::vector<Stmt> &stmts,
                        const char *where) {
            for (const Stmt &stmt : stmts) {
                forEachIvMisuse(
                    ctx.nest(), stmt,
                    [&](IvMisuse misuse, const std::string &name) {
                        out.push_back(ctx.finding(
                            id(), defaultSeverity(), stmt.loc(),
                            misuse == IvMisuse::Assign
                                ? concat(where,
                                         ": assignment to scalar '",
                                         name,
                                         "' shadows an induction "
                                         "variable")
                                : concat(where, ": scalar read of '",
                                         name,
                                         "' names an induction "
                                         "variable (it reads 0.0, not "
                                         "the loop counter)")));
                    });
            }
        };
        scan(ctx.nest().body(), "body");
        scan(ctx.nest().preheader(), "preheader");
        scan(ctx.nest().postheader(), "postheader");
    }
};

// --- UJ014: register-pressure-limited unrolling ---------------------

class RegisterPressureRule : public Rule
{
  public:
    const char *id() const override { return "UJ014"; }
    const char *
    summary() const override
    {
        return "the model-optimal unroll overflows the register file "
               "and is floor-divided by the search";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const LoopNest &nest = ctx.nest();
        if (nest.depth() < 2 || !nest.allRefsAnalyzable())
            return;
        // One build, two searches: register limit off, then on.
        OptimizerConfig config;
        config.maxUnroll = ctx.options().maxUnroll;
        UnrollProblem problem = unrollProblem(nest, ctx.machine(), config);
        NestTables tables =
            buildNestTables(nest, problem.space, problem.localized);
        config.limitRegisters = false;
        UnrollDecision unlimited =
            searchUnrollSpace(nest, ctx.machine(), config, tables);
        if (!unlimited.transforms() ||
            unlimited.registers <= ctx.machine().fpRegisters) {
            return;
        }
        config.limitRegisters = true;
        UnrollDecision limited =
            searchUnrollSpace(nest, ctx.machine(), config, tables);
        if (limited.unroll == unlimited.unroll)
            return;
        out.push_back(ctx.finding(
            id(), defaultSeverity(), nestLoc(nest),
            concat("the balance-optimal unroll ",
                   unlimited.unroll.toString(), " needs ",
                   unlimited.registers, " registers but the machine "
                   "has ", ctx.machine().fpRegisters,
                   "; the search settles for ",
                   limited.unroll.toString(), " (", limited.registers,
                   " registers)")));
    }
};

// --- UJ015: post-transform out-of-bounds reach ----------------------

class PostTransformReachRule : public Rule
{
  public:
    const char *id() const override { return "UJ015"; }
    const char *
    summary() const override
    {
        return "dependence-legal unroll amounts push a reference past "
               "extent + halo (post-transform out of bounds)";
    }
    const char *
    details() const override
    {
        return "The dataflow engine replays unroll-and-jam on the "
               "subscript intervals: copy j of loop k shifts the "
               "induction variable by j * step, so a reference's reach "
               "grows forward by coeff * step * unroll. When the "
               "dependence-legal maximum amounts (the ones the "
               "optimizer searches up to) carry some dimension past "
               "extent + halo, candidates near that maximum are doomed "
               "to be rejected by the reach validator and rolled back. "
               "The finding is an error when even a single unrolled "
               "copy of any contributing loop escapes -- then no "
               "transformed version of the nest survives -- and a "
               "warning otherwise. Shrink the offsets, grow the "
               "extents, or accept the untransformed nest.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Error;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const LoopNest &nest = ctx.nest();
        if (nest.depth() < 2)
            return; // UJ002 territory
        const NestDataflow &df = ctx.dataflow();
        if (df.provablyEmpty())
            return; // nothing is accessed (UJ006/UJ016)

        // The optimizer never unrolls the innermost loop.
        IntVector legal = ctx.safeBounds();
        legal[nest.depth() - 1] = 0;
        if (legal.isZero())
            return; // no transform is possible at all

        std::set<std::string> reported;
        for (const Access &access : ctx.accesses()) {
            const ArrayRef &ref = access.ref;
            RefDeclaration facts =
                refDeclaration(ctx.program(), nest, ref);
            if (!facts.consistent())
                continue; // UJ003 territory
            if (!reported.insert(ref.array() + "#" + ref.toString())
                     .second) {
                continue;
            }
            checkRef(ctx, df, ref, *facts.decl, legal, out);
        }
    }

  private:
    void
    checkRef(RuleContext &ctx, const NestDataflow &df,
             const ArrayRef &ref, const ArrayDecl &decl,
             const IntVector &legal,
             std::vector<LintDiagnostic> &out) const
    {
        const LoopNest &nest = ctx.nest();
        const std::int64_t halo = ArrayLayout::haloElems;
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            Interval extent = boundInterval(
                decl.extents[d], ctx.program().paramDefaults());
            if (!extent.isPoint())
                continue; // UJ004 territory / symbolic extent
            Interval base =
                df.unrolledDimRange(ref, d, IntVector(nest.depth()));
            if (!base.bounded() || base.isEmpty())
                continue;
            if (base.lo < 1 - halo || base.hi > extent.lo + halo)
                continue; // already out of bounds untransformed (UJ009)
            Interval full = df.unrolledDimRange(ref, d, legal);
            if (full.lo >= 1 - halo && full.hi <= extent.lo + halo)
                continue;

            // Error tier: every nonzero transform escapes, i.e. one
            // copy of each contributing loop alone already does.
            bool minimal_escapes = false;
            for (std::size_t k = 0; k + 1 < nest.depth(); ++k) {
                if (legal[k] <= 0 || ref.row(d)[k] == 0)
                    continue;
                IntVector one(nest.depth());
                one[k] = 1;
                Interval single = df.unrolledDimRange(ref, d, one);
                minimal_escapes = single.lo < 1 - halo ||
                                  single.hi > extent.lo + halo;
                if (!minimal_escapes)
                    break;
            }
            LintSeverity severity = minimal_escapes
                                        ? LintSeverity::Error
                                        : LintSeverity::Warn;
            out.push_back(ctx.finding(
                id(), severity, ref.loc(),
                concat("after unroll-and-jam by the dependence-legal "
                       "amounts ", legal.toString(), ", reference ",
                       ref.toString(nest.ivNames()), " dimension ",
                       d + 1, " spans ", full.toString(),
                       " outside extent ", extent.lo, " + halo ", halo,
                       minimal_escapes
                           ? "; even a single unrolled copy escapes, "
                             "so the reach validator rolls back every "
                             "transformed version"
                           : "; candidates near the legal maximum "
                             "would be rolled back by the reach "
                             "validator")));
            return;
        }
    }
};

// --- UJ016: interval-proven zero-trip loops -------------------------

class ProvenZeroTripRule : public Rule
{
  public:
    const char *id() const override { return "UJ016"; }
    const char *
    summary() const override
    {
        return "interval analysis proves a loop runs zero iterations "
               "even though some bound in the nest is symbolic";
    }
    const char *
    details() const override
    {
        return "UJ006 needs every bound in the nest to evaluate under "
               "the parameter defaults; one symbolic bound anywhere "
               "blinds it. The interval domain degrades per-fact "
               "instead: a loop whose own trip-count interval has "
               "upper bound <= 0 is dead no matter what the symbolic "
               "bounds elsewhere resolve to. When both offending "
               "bounds are constants the finding carries a "
               "machine-applicable fix that swaps them.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        if (ctx.ranges())
            return; // fully evaluable: UJ006 territory
        const NestDataflow &df = ctx.dataflow();
        for (std::size_t k = 0; k < ctx.nest().depth(); ++k) {
            const LoopDataflow &lf = df.loops()[k];
            if (!lf.provablyEmpty())
                continue;
            const Loop &loop = ctx.nest().loop(k);
            LintDiagnostic diag = ctx.finding(
                id(), defaultSeverity(), loop.loc,
                concat("loop '", loop.iv,
                       "' provably runs zero iterations (lower bound "
                       "in ", lf.lower.toString(), ", upper bound in ",
                       lf.upper.toString(),
                       ") regardless of the unresolved symbolic "
                       "bounds elsewhere in the nest"));
            if (lf.lower.isPoint() && lf.upper.isPoint()) {
                diag.fix = LintFix{
                    "swap the inverted constant bounds",
                    concat(lf.lower.lo, ", ", lf.upper.lo),
                    concat(lf.upper.lo, ", ", lf.lower.lo)};
            }
            out.push_back(std::move(diag));
        }
    }
};

// --- UJ017: flat-index overflow risk --------------------------------

class FlatIndexOverflowRule : public Rule
{
  public:
    const char *id() const override { return "UJ017"; }
    const char *
    summary() const override
    {
        return "flat column-major index of a reference exceeds 2^31; "
               "32-bit index arithmetic would overflow";
    }
    const char *
    details() const override
    {
        return "The dataflow engine folds each access through the "
               "halo-padded column-major layout: flat = sum over "
               "dimensions of (subscript - 1 + halo) * stride, with "
               "strides the running product of padded extents. UJ007 "
               "only sees per-loop ranges; this rule sees the product. "
               "A flat interval reaching past 2^31 means generated "
               "code (or a consumer indexing with 32-bit ints) "
               "overflows even though every individual subscript "
               "looks small. The engine's arithmetic saturates, so an "
               "overflowing layout shows up as a huge bound instead "
               "of wrapping silently.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const NestDataflow &df = ctx.dataflow();
        if (df.provablyEmpty())
            return;
        std::set<std::string> reported;
        const std::vector<Access> &accesses = ctx.accesses();
        for (std::size_t i = 0; i < accesses.size(); ++i) {
            const AccessDataflow &ad = df.accesses()[i];
            const ArrayRef &ref = accesses[i].ref;
            if (!ad.flat.bounded() || ad.flat.isEmpty())
                continue;
            std::int64_t magnitude =
                std::max(std::abs(ad.flat.lo), std::abs(ad.flat.hi));
            if (magnitude <= kOverflowRisk)
                continue;
            if (!reported.insert(ref.array()).second)
                continue;
            out.push_back(ctx.finding(
                id(), defaultSeverity(), ref.loc(),
                concat("flat column-major index of ",
                       ref.toString(ctx.nest().ivNames()), " spans ",
                       ad.flat.toString(),
                       " in the halo-padded layout; magnitudes past "
                       "2^31 overflow 32-bit index arithmetic even "
                       "though every subscript stays small")));
        }
    }
};

// --- UJ018: provably-dead fringe loop -------------------------------

class DeadFringeRule : public Rule
{
  public:
    const char *id() const override { return "UJ018"; }
    const char *
    summary() const override
    {
        return "fringe loop of a previous unroll-and-jam provably "
               "runs zero iterations and can be deleted";
    }
    const char *
    details() const override
    {
        return "A fringe loop starts at the aligned upper bound of "
               "the main unrolled nest plus one. When the trip count "
               "divides the unroll factor the fringe is empty by "
               "construction, but it still occupies a nest slot, "
               "costs analysis time, and blocks further restructuring."
               " The interval domain evaluates the alignment term "
               "exactly when the surrounding bounds are exact, so an "
               "empty fringe is proven, not guessed. Delete the loop "
               "or re-run the pipeline's restructuring stage.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const NestDataflow &df = ctx.dataflow();
        for (std::size_t k = 0; k < ctx.nest().depth(); ++k) {
            const Loop &loop = ctx.nest().loop(k);
            if (!loop.lower.isAligned() && !loop.upper.isAligned())
                continue; // not a fringe-shaped bound
            if (!df.loops()[k].provablyEmpty())
                continue;
            out.push_back(ctx.finding(
                id(), defaultSeverity(), loop.loc,
                concat("fringe loop '", loop.iv,
                       "' provably runs zero iterations (its aligned "
                       "bound already covers the whole range); the "
                       "loop is dead code and can be deleted")));
        }
    }
};

// --- UJ019: stride-1 contradicted by layout congruence --------------

class StrideContradictionRule : public Rule
{
  public:
    const char *id() const override { return "UJ019"; }
    const char *
    summary() const override
    {
        return "innermost traversal provably jumps a full cache line "
               "per iteration (no spatial locality)";
    }
    const char *
    details() const override
    {
        return "The locality model credits spatial reuse to "
               "references whose innermost traversal walks "
               "consecutive elements. The congruence domain proves "
               "the opposite for some references: successive "
               "innermost iterations move the flat index by a fixed "
               "stride (the addresses stay in one residue class "
               "modulo that stride), and when the stride is at least "
               "a cache line no two consecutive iterations share a "
               "line. The locality model prices this correctly, so "
               "the pipeline is unaffected -- the finding is advice: "
               "interchange the loops or transpose the array layout "
               "to restore stride-1.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        if (ctx.nest().depth() < 2)
            return; // UJ002 territory: nest is not a candidate anyway
        const NestDataflow &df = ctx.dataflow();
        if (df.provablyEmpty())
            return;
        std::int64_t line = ctx.machine().lineElems();
        std::set<std::string> reported;
        const std::vector<Access> &accesses = ctx.accesses();
        for (std::size_t i = 0; i < accesses.size(); ++i) {
            const AccessDataflow &ad = df.accesses()[i];
            const ArrayRef &ref = accesses[i].ref;
            if (!ad.innerStride || *ad.innerStride == 0)
                continue; // unknown layout, or innermost-invariant
            std::int64_t stride = std::abs(*ad.innerStride);
            if (stride < line)
                continue;
            if (!reported.insert(ref.array() + "#" + ref.toString())
                     .second) {
                continue;
            }
            out.push_back(ctx.finding(
                id(), defaultSeverity(), ref.loc(),
                concat("reference ", ref.toString(ctx.nest().ivNames()),
                       " moves ", stride,
                       " elements per innermost iteration (flat "
                       "addresses stay in one residue class mod ",
                       stride, "), so with a ", line,
                       "-element cache line consecutive iterations "
                       "never share a line; interchange the loops or "
                       "transpose the layout for stride-1")));
        }
    }
};

// --- UJ020: aliasing by range overlap across UGS sets ---------------

class RangeAliasRule : public Rule
{
  public:
    const char *id() const override { return "UJ020"; }
    const char *
    summary() const override
    {
        return "two uniformly generated sets of a written array "
               "provably touch overlapping sections";
    }
    const char *
    details() const override
    {
        return "UJ012 flags a written array whose references split "
               "into several uniformly generated sets -- a modeling "
               "gap. This rule sharpens it into a proof: the interval "
               "domain computes the bounding box each set touches, "
               "and when two boxes of a written array intersect in "
               "every dimension the sets genuinely alias, so flow "
               "between them is real data movement the RRS/register "
               "tables cannot see, not merely a possibility. Expect "
               "the predicted balance to be off and the safety "
               "oracle to be the only reliable check.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Warn;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        // Group the sets by array, keeping only written arrays.
        std::set<std::string> written;
        for (const Access &access : ctx.accesses()) {
            if (access.isWrite)
                written.insert(access.ref.array());
        }
        std::map<std::string,
                 std::vector<const UniformlyGeneratedSet *>>
            by_array;
        for (const UniformlyGeneratedSet &set : ctx.ugs()) {
            if (written.count(set.array))
                by_array[set.array].push_back(&set);
        }

        const NestDataflow &df = ctx.dataflow();
        for (const auto &[array, sets] : by_array) {
            if (sets.size() < 2)
                continue;
            std::vector<std::vector<Interval>> boxes;
            for (const UniformlyGeneratedSet *set : sets)
                boxes.push_back(setBox(df, *set));
            for (std::size_t a = 0; a < sets.size(); ++a) {
                for (std::size_t b = a + 1; b < sets.size(); ++b) {
                    if (!provablyOverlap(boxes[a], boxes[b]))
                        continue;
                    const ArrayRef &ra =
                        sets[a]->members.front().ref;
                    const ArrayRef &rb =
                        sets[b]->members.front().ref;
                    out.push_back(ctx.finding(
                        id(), defaultSeverity(), ra.loc(),
                        concat("written array '", array,
                               "' is addressed through two subscript "
                               "matrices whose sections provably "
                               "overlap: ",
                               ra.toString(ctx.nest().ivNames()),
                               " touches ", boxString(boxes[a]),
                               " and ",
                               rb.toString(ctx.nest().ivNames()),
                               " touches ", boxString(boxes[b]),
                               "; cross-set flow is real aliasing "
                               "invisible to the unroll tables")));
                    return; // one finding per nest is enough
                }
            }
        }
    }

  private:
    /** Per-dimension hull of everything the set's members touch. */
    static std::vector<Interval>
    setBox(const NestDataflow &df, const UniformlyGeneratedSet &set)
    {
        std::vector<Interval> box;
        for (const Access &access : set.members) {
            AccessDataflow ad =
                df.analyzeRef(access.ref, access.isWrite);
            if (box.empty()) {
                for (const DimDataflow &dim : ad.dims)
                    box.push_back(dim.range);
                continue;
            }
            for (std::size_t d = 0;
                 d < box.size() && d < ad.dims.size(); ++d) {
                box[d] = Interval::hull(box[d], ad.dims[d].range);
            }
        }
        return box;
    }

    /** True iff both boxes are bounded, non-empty and intersect. */
    static bool
    provablyOverlap(const std::vector<Interval> &a,
                    const std::vector<Interval> &b)
    {
        if (a.empty() || a.size() != b.size())
            return false;
        for (std::size_t d = 0; d < a.size(); ++d) {
            if (!a[d].bounded() || !b[d].bounded() ||
                a[d].isEmpty() || b[d].isEmpty() ||
                Interval::disjoint(a[d], b[d])) {
                return false;
            }
        }
        return true;
    }

    static std::string
    boxString(const std::vector<Interval> &box)
    {
        std::string text;
        for (std::size_t d = 0; d < box.size(); ++d) {
            if (d)
                text += " x ";
            text += box[d].toString();
        }
        return text;
    }
};

// --- UJ021: dependence edges deleted by the range pre-filter --------

class RangePruneReportRule : public Rule
{
  public:
    const char *id() const override { return "UJ021"; }
    const char *
    summary() const override
    {
        return "the range pre-filter deletes dependence edges whose "
               "subscript intervals cannot intersect";
    }
    const char *
    details() const override
    {
        return "Before the optimizer consults the dependence graph, "
               "a pre-filter drops edges the interval domain proves "
               "infeasible under the parameter defaults: the two "
               "references' subscript ranges are disjoint, the exact "
               "dependence distance exceeds what the trip counts "
               "allow, or the whole nest is dead. Legality is then "
               "specialized to those bindings -- the pipeline's "
               "differential oracle runs under the same bindings and "
               "backstops every decision. This note reports what was "
               "deleted so a surprising unroll choice can be traced "
               "to the sharper graph.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const RuleContext::PruneStats &stats = ctx.pruneStats();
        if (stats.pruned.empty())
            return;
        const PrunedEdge &first = stats.pruned.front();
        const std::vector<Access> &accesses = ctx.accesses();
        std::vector<std::string> ivs = ctx.nest().ivNames();
        out.push_back(ctx.finding(
            id(), defaultSeverity(), nestLoc(ctx.nest()),
            concat("the range pre-filter deletes ",
                   stats.pruned.size(), " of ",
                   stats.pruned.size() + stats.kept,
                   " dependence edge(s) under the parameter defaults;"
                   " e.g. ", depKindName(first.kind), " ",
                   accesses[first.src].ref.toString(ivs), " -> ",
                   accesses[first.dst].ref.toString(ivs), ": ",
                   first.reason)));
    }
};

// --- UJ022: provably single-trip loops ------------------------------

class SingleTripRule : public Rule
{
  public:
    const char *id() const override { return "UJ022"; }
    const char *
    summary() const override
    {
        return "loop provably runs exactly one iteration; unrolling "
               "it is pointless";
    }
    const char *
    details() const override
    {
        return "A loop whose trip-count interval is exactly [1, 1] "
               "contributes nothing to reuse: every unroll amount "
               "beyond the first copy duplicates dead work, and the "
               "nest's effective depth is one less than it appears. "
               "The proof needs only this loop's own bounds, so it "
               "survives symbolic bounds elsewhere in the nest. Fold "
               "the single iteration into the body, or leave it -- "
               "the optimizer wastes search points but stays correct.";
    }
    LintSeverity defaultSeverity() const override
    {
        return LintSeverity::Note;
    }

    void
    check(RuleContext &ctx, std::vector<LintDiagnostic> &out) const override
    {
        const NestDataflow &df = ctx.dataflow();
        for (std::size_t k = 0; k < ctx.nest().depth(); ++k) {
            if (!df.loops()[k].provablySingle())
                continue;
            const Loop &loop = ctx.nest().loop(k);
            out.push_back(ctx.finding(
                id(), defaultSeverity(), loop.loc,
                concat("loop '", loop.iv,
                       "' provably runs exactly one iteration; it "
                       "adds nest depth without reuse, and every "
                       "nonzero unroll amount is wasted on it")));
        }
    }
};

} // namespace

const std::vector<std::unique_ptr<Rule>> &
lintRules()
{
    static const std::vector<std::unique_ptr<Rule>> rules = [] {
        std::vector<std::unique_ptr<Rule>> list;
        list.push_back(std::make_unique<PerfectNestRule>());
        list.push_back(std::make_unique<ShallowNestRule>());
        list.push_back(std::make_unique<DeclarationsRule>());
        list.push_back(std::make_unique<EvaluableBoundsRule>());
        list.push_back(std::make_unique<RectangularBoundsRule>());
        list.push_back(std::make_unique<ZeroTripRule>());
        list.push_back(std::make_unique<OverflowRiskRule>());
        list.push_back(std::make_unique<SivSeparableRule>());
        list.push_back(std::make_unique<ReachRule>());
        list.push_back(std::make_unique<CarriedScalarRule>());
        list.push_back(std::make_unique<BlockedUnrollRule>());
        list.push_back(std::make_unique<ForeignWriteRule>());
        list.push_back(std::make_unique<IvMisuseRule>());
        list.push_back(std::make_unique<RegisterPressureRule>());
        list.push_back(std::make_unique<PostTransformReachRule>());
        list.push_back(std::make_unique<ProvenZeroTripRule>());
        list.push_back(std::make_unique<FlatIndexOverflowRule>());
        list.push_back(std::make_unique<DeadFringeRule>());
        list.push_back(std::make_unique<StrideContradictionRule>());
        list.push_back(std::make_unique<RangeAliasRule>());
        list.push_back(std::make_unique<RangePruneReportRule>());
        list.push_back(std::make_unique<SingleTripRule>());
        return list;
    }();
    return rules;
}

} // namespace ujam
