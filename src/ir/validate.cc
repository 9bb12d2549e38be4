#include "ir/validate.hh"

#include <set>

#include "support/diagnostics.hh"
#include "support/rational.hh"

namespace ujam
{

namespace
{

// --- basic well-formedness ------------------------------------------

void
checkStmts(const Program &program, const LoopNest &nest,
           const std::vector<Stmt> &stmts, const char *where,
           std::vector<std::string> &problems)
{
    const std::string nest_name =
        nest.name().empty() ? "<unnamed>" : nest.name();
    auto check_ref = [&](const ArrayRef &ref) {
            RefDeclaration facts = refDeclaration(program, nest, ref);
            if (!facts.decl) {
                problems.push_back(concat("nest ", nest_name, " ", where,
                                          ": undeclared array '",
                                          ref.array(), "'"));
                return;
            }
            if (!facts.rankMatches) {
                problems.push_back(concat(
                    "nest ", nest_name, " ", where, ": array '",
                    ref.array(), "' has rank ",
                    facts.decl->extents.size(),
                    " but is referenced with ", ref.dims(),
                    " subscripts"));
            }
            if (!facts.depthMatches) {
                problems.push_back(concat(
                    "nest ", nest_name, " ", where, ": reference to '",
                    ref.array(), "' has subscript depth ", ref.depth(),
                    " in a depth-", nest.depth(), " nest"));
            }
    };
    for (const Stmt &stmt : stmts) {
        if (stmt.isPrefetch())
            check_ref(stmt.prefetchRef());
        else
            stmt.forEachAccess(
                [&](const ArrayRef &ref, bool) { check_ref(ref); });
    }
}

// --- strict transformed-nest invariants -----------------------------

/** Per-nest context shared by the statement-level checks. */
struct StrictChecker
{
    const Program &program;
    const LoopNest &nest;
    const ValidateOptions &options;
    std::vector<std::string> &problems;

    std::string nestName;
    std::set<std::string> ivs;
    // Nothing when some bound failed to evaluate (the base validator
    // already reported that).
    std::optional<LoopRanges> ranges;

    void
    note(const std::string &what)
    {
        problems.push_back(concat("nest ", nestName, ": ", what));
    }

    void
    checkLoops()
    {
        for (const Loop &loop : nest.loops()) {
            if (options.requireStepOne && loop.step != 1) {
                note(concat("loop '", loop.iv, "' has step ", loop.step,
                            " after normalization"));
            }
            std::vector<std::string> names;
            loop.lower.collectParamNames(names);
            loop.upper.collectParamNames(names);
            for (const std::string &name : names) {
                if (ivs.count(name)) {
                    note(concat("bound of loop '", loop.iv,
                                "' references induction variable '",
                                name, "'"));
                }
            }
        }
    }

    void
    checkRefReach(const ArrayRef &ref, const char *where)
    {
        if (!ranges)
            return;
        RefDeclaration facts = refDeclaration(program, nest, ref);
        if (!facts.consistent())
            return; // the base checks reported it
        std::optional<ReachEscape> escape = reachEscape(
            *facts.decl, ref, *ranges, program.paramDefaults());
        if (escape) {
            note(concat(where, ": reference to '", ref.array(),
                        "' dimension ", escape->dim + 1, " spans [",
                        escape->min, ", ", escape->max,
                        "] outside extent ", escape->extent, " + halo ",
                        ArrayLayout::haloElems));
        }
    }

    void
    checkStmts(const std::vector<Stmt> &stmts, const char *where)
    {
        for (const Stmt &stmt : stmts) {
            forEachIvMisuse(
                nest, stmt, [&](IvMisuse misuse, const std::string &name) {
                    note(misuse == IvMisuse::Assign
                             ? concat(where, ": assignment to scalar '",
                                      name,
                                      "' shadows an induction variable")
                             : concat(where, ": scalar read of '", name,
                                      "' names an induction variable "
                                      "(reads 0.0, not the loop "
                                      "counter)"));
                });
            if (stmt.isPrefetch())
                checkRefReach(stmt.prefetchRef(), where);
            stmt.forEachAccess([&](const ArrayRef &ref, bool) {
                checkRefReach(ref, where);
            });
        }
    }
};

/** Shared by both program-level validators. */
void
checkArrayExtents(const Program &program,
                  std::vector<std::string> &problems)
{
    for (const ArrayDecl &decl : program.arrays()) {
        for (const Bound &extent : decl.extents) {
            try {
                extent.evaluate(program.paramDefaults());
            } catch (const FatalError &err) {
                problems.push_back(concat("array '", decl.name, "': ",
                                          err.what()));
            }
        }
    }
}

} // namespace

std::vector<std::string>
validateNest(const Program &program, const LoopNest &nest)
{
    std::vector<std::string> problems;
    const std::string nest_name =
        nest.name().empty() ? "<unnamed>" : nest.name();

    std::set<std::string> ivs;
    for (const Loop &loop : nest.loops()) {
        if (!ivs.insert(loop.iv).second) {
            problems.push_back(concat("nest ", nest_name,
                                      ": duplicate induction variable '",
                                      loop.iv, "'"));
        }
        if (loop.step < 1) {
            problems.push_back(concat("nest ", nest_name, ": loop '",
                                      loop.iv, "' has non-positive step ",
                                      loop.step));
        }
        try {
            loop.lower.evaluate(program.paramDefaults());
            loop.upper.evaluate(program.paramDefaults());
        } catch (const FatalError &err) {
            problems.push_back(concat("nest ", nest_name, ": loop '",
                                      loop.iv, "': ", err.what()));
        }
    }
    if (nest.body().empty())
        problems.push_back(concat("nest ", nest_name, ": empty body"));

    checkStmts(program, nest, nest.body(), "body", problems);
    checkStmts(program, nest, nest.preheader(), "preheader", problems);
    checkStmts(program, nest, nest.postheader(), "postheader", problems);
    return problems;
}

std::vector<std::string>
validateProgram(const Program &program)
{
    std::vector<std::string> problems;
    checkArrayExtents(program, problems);
    for (const LoopNest &nest : program.nests()) {
        std::vector<std::string> nest_problems =
            validateNest(program, nest);
        problems.insert(problems.end(), nest_problems.begin(),
                        nest_problems.end());
    }
    return problems;
}

std::vector<std::string>
validateNestStrict(const Program &program, const LoopNest &nest,
                   const ValidateOptions &options)
{
    std::vector<std::string> problems = validateNest(program, nest);

    StrictChecker checker{program, nest, options, problems, {}, {},
                          loopRanges(program, nest)};
    checker.nestName = nest.name().empty() ? "<unnamed>" : nest.name();
    for (const Loop &loop : nest.loops())
        checker.ivs.insert(loop.iv);

    checker.checkLoops();
    checker.checkStmts(nest.body(), "body");
    checker.checkStmts(nest.preheader(), "preheader");
    checker.checkStmts(nest.postheader(), "postheader");
    return problems;
}

std::vector<std::string>
validateProgramStrict(const Program &program,
                      const ValidateOptions &options)
{
    std::vector<std::string> problems;
    checkArrayExtents(program, problems);
    for (const LoopNest &nest : program.nests()) {
        std::vector<std::string> nest_problems =
            validateNestStrict(program, nest, options);
        problems.insert(problems.end(), nest_problems.begin(),
                        nest_problems.end());
    }
    return problems;
}

ArrayLayout
arrayLayout(const ArrayDecl &decl, const ParamBindings &params)
{
    ArrayLayout layout;
    for (const Bound &extent : decl.extents) {
        std::int64_t ext = extent.evaluate(params);
        if (ext < 1)
            fatal("array '", decl.name, "' has non-positive extent ", ext);
        layout.extents.push_back(ext);
        layout.strides.push_back(layout.total);
        layout.total = checkedMul(layout.total,
                                  ext + 2 * ArrayLayout::haloElems);
    }
    constexpr std::int64_t max_elems = std::int64_t(1) << 26;
    if (layout.total > max_elems) {
        fatal("array '", decl.name, "' needs ", layout.total,
              " elements (halo included); the interpreter caps arrays "
              "at ", max_elems, " elements");
    }
    return layout;
}

std::optional<LoopRanges>
loopRanges(const Program &program, const LoopNest &nest)
{
    LoopRanges ranges;
    for (const Loop &loop : nest.loops()) {
        try {
            ranges.emplace_back(
                loop.lower.evaluate(program.paramDefaults()),
                loop.upper.evaluate(program.paramDefaults()));
        } catch (const FatalError &) {
            return std::nullopt;
        }
    }
    return ranges;
}

RefDeclaration
refDeclaration(const Program &program, const LoopNest &nest,
               const ArrayRef &ref)
{
    RefDeclaration facts;
    for (const ArrayDecl &decl : program.arrays()) {
        if (decl.name == ref.array()) {
            facts.decl = &decl;
            break;
        }
    }
    if (facts.decl) {
        facts.rankMatches = facts.decl->extents.size() == ref.dims();
        facts.depthMatches = ref.depth() == nest.depth();
    }
    return facts;
}

std::optional<ReachEscape>
reachEscape(const ArrayDecl &decl, const ArrayRef &ref,
            const LoopRanges &ranges, const ParamBindings &params)
{
    for (const auto &[lo, hi] : ranges) {
        if (hi < lo)
            return std::nullopt;
    }
    const std::int64_t halo = ArrayLayout::haloElems;
    for (std::size_t d = 0; d < ref.dims(); ++d) {
        std::int64_t extent;
        try {
            extent = decl.extents[d].evaluate(params);
        } catch (const FatalError &) {
            return std::nullopt;
        }
        std::int64_t min = ref.offset()[d];
        std::int64_t max = ref.offset()[d];
        for (std::size_t k = 0; k < ranges.size(); ++k) {
            std::int64_t coeff = ref.row(d)[k];
            min += coeff * (coeff >= 0 ? ranges[k].first
                                       : ranges[k].second);
            max += coeff * (coeff >= 0 ? ranges[k].second
                                       : ranges[k].first);
        }
        if (min < 1 - halo || max > extent + halo)
            return ReachEscape{d, min, max, extent};
    }
    return std::nullopt;
}

void
forEachIvMisuse(
    const LoopNest &nest, const Stmt &stmt,
    const std::function<void(IvMisuse, const std::string &)> &visit)
{
    if (stmt.isPrefetch())
        return;
    auto is_iv = [&nest](const std::string &name) {
        for (const Loop &loop : nest.loops()) {
            if (loop.iv == name)
                return true;
        }
        return false;
    };
    if (!stmt.lhsIsArray() && is_iv(stmt.lhsScalar()))
        visit(IvMisuse::Assign, stmt.lhsScalar());
    forEachScalarRead(stmt.rhs(), [&](const std::string &name) {
        if (is_iv(name))
            visit(IvMisuse::Read, name);
    });
}

} // namespace ujam
