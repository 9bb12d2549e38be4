/**
 * @file
 * The lowered interpreter against the tree walker it replaced.
 *
 * ReferenceInterpreter is the interpreter as it was before runNest
 * lowered each nest: per access a string-keyed storage lookup and a
 * walk of the subscript rows, per statement a recursive evalExpr over
 * the expression tree, scalars in a name-keyed map, and every loop's
 * bounds evaluated at every entry. The property tests run it and the
 * Interpreter on the same programs and require bit-identical arrays
 * and scalars, the same (address, kind) access sequence, the same
 * load/store/prefetch/iteration/header counts and the same failure
 * text.
 *
 * One deliberate difference is not exercised: a prefetch whose rank
 * differs from its array's panics in the lowered form like a read,
 * where the walker indexed past the array's extents.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <regex>
#include <string>
#include <utility>
#include <vector>

#include "deps/analyzer.hh"
#include "ir/builder.hh"
#include "ir/interp.hh"
#include "parser/parser.hh"
#include "scenarios/scenario.hh"
#include "scenarios/sweep.hh"
#include "support/diagnostics.hh"
#include "transform/normalize.hh"
#include "transform/prefetch_insertion.hh"
#include "transform/scalar_replacement.hh"
#include "transform/unroll_and_jam.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

/** SplitMix64-style hash; Interpreter::seedArrays seeds with it. */
std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The pre-lowering interpreter: a walk of the IR per access. */
class ReferenceInterpreter
{
  public:
    ReferenceInterpreter(const Program &program,
                         const ParamBindings &overrides = {})
        : program_(program), params_(program.paramDefaults())
    {
        for (const auto &[name, value] : overrides)
            params_[name] = value;
        std::int64_t next_base = 0;
        for (const ArrayDecl &decl : program.arrays()) {
            ArrayStorage array{arrayLayout(decl, params_), decl.name,
                               next_base, {}};
            array.data.assign(static_cast<std::size_t>(array.total), 0.0);
            next_base += array.total;
            array_index_[array.name] = arrays_.size();
            arrays_.push_back(std::move(array));
        }
    }

    void
    seedArrays(std::uint64_t seed)
    {
        for (std::size_t a = 0; a < arrays_.size(); ++a) {
            ArrayStorage &array = arrays_[a];
            for (std::size_t i = 0; i < array.data.size(); ++i) {
                std::uint64_t h =
                    mixHash(seed ^ mixHash(a * 0x10001ULL + i));
                array.data[i] =
                    1.0 + static_cast<double>(h % 1000003) / 1000003.0;
            }
        }
    }

    void
    setAccessCallback(Interpreter::AccessCallback callback)
    {
        callback_ = std::move(callback);
    }

    void
    run()
    {
        for (const LoopNest &nest : program_.nests())
            runNest(nest);
    }

    void
    runNest(const LoopNest &nest)
    {
        iv_values_.assign(nest.depth(), 0);
        if (nest.depth() == 0) {
            for (const Stmt &stmt : nest.preheader())
                execStmt(stmt);
            for (const Stmt &stmt : nest.body())
                execStmt(stmt);
            for (const Stmt &stmt : nest.postheader())
                execStmt(stmt);
            return;
        }
        execLoops(nest, 0);
    }

    const std::vector<double> &
    arrayData(const std::string &name) const
    {
        return arrays_[array_index_.at(name)].data;
    }

    double
    scalar(const std::string &name) const
    {
        auto it = scalars_.find(name);
        return it == scalars_.end() ? 0.0 : it->second;
    }

    std::uint64_t loadCount() const { return loads_; }
    std::uint64_t storeCount() const { return stores_; }
    std::uint64_t prefetchCount() const { return prefetches_; }
    std::uint64_t iterationCount() const { return iterations_; }
    std::uint64_t headerStmtCount() const { return header_stmts_; }

  private:
    struct ArrayStorage : ArrayLayout
    {
        std::string name;
        std::int64_t base = 0;
        std::vector<double> data;
    };

    ArrayStorage &
    storage(const std::string &name)
    {
        auto it = array_index_.find(name);
        if (it == array_index_.end())
            fatal("reference to undeclared array '", name, "'");
        return arrays_[it->second];
    }

    std::int64_t
    flatIndex(const ArrayStorage &array, const ArrayRef &ref) const
    {
        UJAM_ASSERT(ref.dims() == array.extents.size(),
                    "rank mismatch accessing '", array.name, "'");
        std::int64_t index = 0;
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            std::int64_t sub = ref.offset()[d];
            const IntVector &row = ref.row(d);
            for (std::size_t k = 0; k < row.size(); ++k) {
                if (row[k] != 0)
                    sub += row[k] * iv_values_[k];
            }
            std::int64_t shifted = sub - 1 + ArrayLayout::haloElems;
            if (shifted < 0 ||
                shifted >= array.extents[d] + 2 * ArrayLayout::haloElems) {
                fatal("subscript ", sub, " of dimension ", d + 1,
                      " of array '", array.name, "' is outside extent ",
                      array.extents[d], " plus halo");
            }
            index += shifted * array.strides[d];
        }
        return index;
    }

    double
    readRef(const ArrayRef &ref)
    {
        const ArrayStorage &array = storage(ref.array());
        std::int64_t index = flatIndex(array, ref);
        ++loads_;
        if (callback_)
            callback_(array.base + index, MemAccessKind::Read);
        return array.data[static_cast<std::size_t>(index)];
    }

    void
    writeRef(const ArrayRef &ref, double value)
    {
        ArrayStorage &array = storage(ref.array());
        std::int64_t index = flatIndex(array, ref);
        ++stores_;
        if (callback_)
            callback_(array.base + index, MemAccessKind::Write);
        array.data[static_cast<std::size_t>(index)] = value;
    }

    double
    evalExpr(const Expr &expr)
    {
        switch (expr.kind()) {
          case Expr::Kind::Constant:
            return expr.constantValue();
          case Expr::Kind::Scalar: {
            auto it = scalars_.find(expr.scalarName());
            return it == scalars_.end() ? 0.0 : it->second;
          }
          case Expr::Kind::ArrayRead:
            return readRef(expr.ref());
          case Expr::Kind::Binary: {
            double lhs = evalExpr(*expr.lhs());
            double rhs = evalExpr(*expr.rhs());
            switch (expr.op()) {
              case BinOp::Add:
                return lhs + rhs;
              case BinOp::Sub:
                return lhs - rhs;
              case BinOp::Mul:
                return lhs * rhs;
              case BinOp::Div:
                return lhs / rhs;
            }
            panic("unknown binary operator");
          }
        }
        panic("unknown expression kind");
    }

    void
    execStmt(const Stmt &stmt)
    {
        if (stmt.isPrefetch()) {
            const ArrayStorage &array = storage(stmt.prefetchRef().array());
            const ArrayRef &ref = stmt.prefetchRef();
            std::int64_t index = 0;
            bool in_range = true;
            for (std::size_t d = 0; d < ref.dims() && in_range; ++d) {
                std::int64_t sub = ref.offset()[d];
                for (std::size_t k = 0; k < ref.row(d).size(); ++k) {
                    if (ref.row(d)[k] != 0)
                        sub += ref.row(d)[k] * iv_values_[k];
                }
                std::int64_t shifted = sub - 1 + ArrayLayout::haloElems;
                if (shifted < 0 ||
                    shifted >=
                        array.extents[d] + 2 * ArrayLayout::haloElems) {
                    in_range = false;
                } else {
                    index += shifted * array.strides[d];
                }
            }
            ++prefetches_;
            if (in_range && callback_)
                callback_(array.base + index, MemAccessKind::Prefetch);
            return;
        }
        double value = evalExpr(*stmt.rhs());
        if (stmt.lhsIsArray())
            writeRef(stmt.lhsRef(), value);
        else
            scalars_[stmt.lhsScalar()] = value;
    }

    void
    execLoops(const LoopNest &nest, std::size_t level)
    {
        if (level == nest.depth()) {
            ++iterations_;
            for (const Stmt &stmt : nest.body())
                execStmt(stmt);
            return;
        }
        const Loop &loop = nest.loop(level);
        if (loop.step < 1) {
            fatal("loop '", loop.iv, "' has step ", loop.step,
                  "; interpretation would not terminate");
        }
        std::int64_t lo = loop.lower.evaluate(params_);
        std::int64_t hi = loop.upper.evaluate(params_);
        bool innermost = (level + 1 == nest.depth());
        if (innermost && !nest.preheader().empty() && lo <= hi) {
            iv_values_[level] = lo;
            for (const Stmt &stmt : nest.preheader()) {
                execStmt(stmt);
                ++header_stmts_;
            }
        }
        std::int64_t last = lo;
        for (std::int64_t v = lo; v <= hi; v += loop.step) {
            iv_values_[level] = v;
            last = v;
            execLoops(nest, level + 1);
        }
        if (innermost && !nest.postheader().empty() && lo <= hi) {
            iv_values_[level] = last;
            for (const Stmt &stmt : nest.postheader()) {
                execStmt(stmt);
                ++header_stmts_;
            }
        }
    }

    const Program &program_;
    ParamBindings params_;
    std::map<std::string, std::size_t> array_index_;
    std::vector<ArrayStorage> arrays_;
    std::map<std::string, double> scalars_;
    std::vector<std::int64_t> iv_values_;
    Interpreter::AccessCallback callback_;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t prefetches_ = 0;
    std::uint64_t iterations_ = 0;
    std::uint64_t header_stmts_ = 0;
};

using Access = std::pair<std::int64_t, MemAccessKind>;

/**
 * @return "" if body ran, else the FatalError or PanicError text. An
 * assertion's "failed at FILE:LINE" names where the check is written,
 * which differs between the two interpreters, so it is cut out.
 */
template <typename Body>
std::string
failureOf(Body &&body)
{
    try {
        body();
    } catch (const FatalError &err) {
        return err.what();
    } catch (const PanicError &err) {
        static const std::regex where(" failed at [^ ]+:[0-9]+: ");
        return std::regex_replace(err.what(), where, " failed: ");
    }
    return "";
}

/** Every scalar a program assigns or reads. */
std::vector<std::string>
scalarNames(const Program &program)
{
    std::vector<std::string> names;
    auto note = [&](const std::string &name) { names.push_back(name); };
    for (const LoopNest &nest : program.nests()) {
        for (const auto *stmts :
             {&nest.preheader(), &nest.body(), &nest.postheader()}) {
            for (const Stmt &stmt : *stmts) {
                if (stmt.isPrefetch())
                    continue;
                if (!stmt.lhsIsArray())
                    note(stmt.lhsScalar());
                forEachScalarRead(stmt.rhs(), note);
            }
        }
    }
    return names;
}

bool
sameBits(double x, double y)
{
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

/** What a comparison covered, so a test can require real coverage. */
struct Coverage
{
    std::size_t programs = 0;
    std::size_t accesses = 0;
    std::size_t prefetches = 0;
    std::size_t headerStmts = 0;
    std::size_t failures = 0;
};

/**
 * Run program under the walker, under the lowered form with a direct
 * sink (the simulator's path) and under plain run() (the oracle's
 * path), and require the same observable behaviour from all three.
 */
void
expectSameAsWalker(const Program &program, const std::string &label,
                   Coverage &coverage)
{
    SCOPED_TRACE(label);
    const std::uint64_t seed = 11;

    ReferenceInterpreter walker(program);
    walker.seedArrays(seed);
    std::vector<Access> expected;
    walker.setAccessCallback([&](std::int64_t address, MemAccessKind kind) {
        expected.emplace_back(address, kind);
    });
    std::string walker_failure = failureOf([&] { walker.run(); });

    Interpreter sunk(program);
    sunk.seedArrays(seed);
    std::size_t seen = 0;
    std::size_t first_difference = expected.size();
    auto sink = [&](std::int64_t address, MemAccessKind kind) {
        if (first_difference == expected.size() &&
            (seen >= expected.size() ||
             expected[seen] != Access{address, kind}))
            first_difference = seen;
        ++seen;
    };
    std::string sunk_failure = failureOf([&] {
        for (const LoopNest &nest : program.nests())
            sunk.runNest(nest, sink);
    });

    Interpreter plain(program);
    plain.seedArrays(seed);
    std::string plain_failure = failureOf([&] { plain.run(); });

    EXPECT_EQ(sunk_failure, walker_failure);
    EXPECT_EQ(plain_failure, walker_failure);
    EXPECT_EQ(seen, expected.size());
    EXPECT_EQ(first_difference, expected.size())
        << "first differing access at position " << first_difference;

    for (const Interpreter *lowered : {&sunk, &plain}) {
        EXPECT_EQ(lowered->loadCount(), walker.loadCount());
        EXPECT_EQ(lowered->storeCount(), walker.storeCount());
        EXPECT_EQ(lowered->prefetchCount(), walker.prefetchCount());
        EXPECT_EQ(lowered->iterationCount(), walker.iterationCount());
        EXPECT_EQ(lowered->headerStmtCount(), walker.headerStmtCount());
        for (const ArrayDecl &decl : program.arrays()) {
            const std::vector<double> &want = walker.arrayData(decl.name);
            const std::vector<double> &got = lowered->arrayData(decl.name);
            ASSERT_EQ(got.size(), want.size()) << decl.name;
            for (std::size_t i = 0; i < want.size(); ++i) {
                ASSERT_TRUE(sameBits(got[i], want[i]))
                    << decl.name << " at flat index " << i << ": "
                    << got[i] << " vs " << want[i];
            }
        }
        for (const std::string &name : scalarNames(program)) {
            EXPECT_TRUE(sameBits(lowered->scalar(name), walker.scalar(name)))
                << "scalar " << name;
        }
    }

    ++coverage.programs;
    coverage.accesses += expected.size();
    coverage.prefetches += walker.prefetchCount();
    coverage.headerStmts += walker.headerStmtCount();
    coverage.failures += !walker_failure.empty();
}

/** @return program with each nest replaced by what fn makes of it. */
template <typename Fn>
Program
mapNests(const Program &program, Fn &&fn)
{
    Program out = program;
    out.nests().clear();
    for (const LoopNest &nest : program.nests()) {
        for (LoopNest &piece : fn(nest))
            out.addNest(std::move(piece));
    }
    return out;
}

/** The default sweep manifest's scenario programs: grid x seeds. */
std::vector<Program>
defaultManifestPrograms()
{
    std::vector<Program> programs;
    const SweepManifest manifest = defaultSweepManifest();
    for (const SweepFamily &entry : manifest.families) {
        // Odometer over the grid, last entry fastest.
        std::vector<std::size_t> digit(entry.grid.size(), 0);
        for (bool more = true; more;) {
            std::string params;
            for (std::size_t g = 0; g < entry.grid.size(); ++g) {
                params += concat(g ? "," : "", entry.grid[g].first, "=",
                                 entry.grid[g].second[digit[g]]);
            }
            for (std::uint64_t seed : manifest.seeds) {
                std::string error;
                std::optional<ScenarioSpec> spec = parseScenarioSpec(
                    concat(entry.family, ":", params, ":", seed), &error);
                if (!spec) {
                    ADD_FAILURE() << error;
                    continue;
                }
                GeneratedScenario scenario = generateScenario(*spec);
                programs.push_back(
                    parseProgram(scenario.source, scenario.name));
            }
            more = false;
            for (std::size_t g = entry.grid.size(); g-- > 0 && !more;) {
                more = ++digit[g] < entry.grid[g].second.size();
                if (!more)
                    digit[g] = 0;
            }
        }
    }
    return programs;
}

/**
 * Unroll-and-jam nest by the first two of amounts on its outer loops
 * (none past the second), clamped to the dependence safety bounds.
 */
std::vector<LoopNest>
unrollClamped(const LoopNest &input, std::int64_t first,
              std::int64_t second)
{
    LoopNest nest = normalizeNest(input).nest;
    IntVector bounds =
        safeUnrollBounds(nest, analyzeDependences(nest), 3);
    IntVector unroll(nest.depth());
    for (std::size_t k = 0; k + 1 < nest.depth() && k < 2; ++k)
        unroll[k] = std::min(k == 0 ? first : second, bounds[k]);
    return unrollAndJamNest(nest, unroll);
}

TEST(LoweredInterpreter, MatchesWalkerOnEverySuiteLoop)
{
    Coverage coverage;
    for (const SuiteLoop &loop : testSuite())
        expectSameAsWalker(loadSuiteProgram(loop), loop.name, coverage);
    EXPECT_EQ(coverage.programs, testSuite().size());
    EXPECT_EQ(coverage.failures, 0u);
    EXPECT_GT(coverage.accesses, 1000000u);
}

TEST(LoweredInterpreter, MatchesWalkerOnTransformedScenarios)
{
    const std::pair<std::int64_t, std::int64_t> amounts[] = {
        {1, 1}, {2, 3}, {3, 3}};
    Coverage coverage;
    std::size_t scenarios = 0;
    for (const Program &program : defaultManifestPrograms()) {
        const std::string &name = program.sourceName();
        expectSameAsWalker(program, name, coverage);
        for (auto [first, second] : amounts) {
            std::string label = concat(name, " u=(", first, ",", second, ")");
            Program jammed = mapNests(program, [&](const LoopNest &nest) {
                return unrollClamped(nest, first, second);
            });
            expectSameAsWalker(jammed, label, coverage);
            Program replaced = mapNests(jammed, [](const LoopNest &nest) {
                return std::vector<LoopNest>{scalarReplace(nest).nest};
            });
            expectSameAsWalker(replaced, label + " +sr", coverage);
            Program prefetched =
                mapNests(replaced, [](const LoopNest &nest) {
                    return std::vector<LoopNest>{
                        insertPrefetches(nest).nest};
                });
            expectSameAsWalker(prefetched, label + " +sr +pf", coverage);
        }
        ++scenarios;
    }
    // Grid x seeds 0 and 1; scalar replacement must have produced
    // pre/postheaders and prefetch insertion prefetches somewhere.
    const SweepManifest manifest = defaultSweepManifest();
    EXPECT_EQ(manifest.seeds, (std::vector<std::uint64_t>{0, 1}));
    EXPECT_EQ(scenarios, manifest.jobCount() / (manifest.machines.size() *
                                                manifest.pipelines.size()));
    EXPECT_EQ(coverage.failures, 0u);
    EXPECT_GT(coverage.headerStmts, 0u);
    EXPECT_GT(coverage.prefetches, 0u);
}

/** A program declaring a(16) and b(16) around one nest. */
Program
programAround(LoopNest nest, const ParamBindings &params = {})
{
    Program program;
    program.declareArray({"a", {Bound::constant(16)}});
    program.declareArray({"b", {Bound::constant(16)}});
    for (const auto &[name, value] : params)
        program.setParamDefault(name, value);
    program.addNest(std::move(nest));
    return program;
}

TEST(LoweredInterpreter, FailsLikeWalker)
{
    Coverage coverage;
    struct Case
    {
        const char *label;
        Program program;
        const char *expect; //!< substring of the failure; "" = runs
    };
    std::vector<Case> cases;

    {
        // b(i) = a(i) runs before a(i + 40) leaves the halo.
        NestBuilder b;
        b.loop("i", 1, 8);
        b.assign("b", {idx("i")}, b.read("a", {idx("i")}));
        b.assign("a", {idx("i")}, b.read("a", {idx("i", 40)}));
        cases.push_back({"past the halo", programAround(b.build()),
                         "outside extent 16 plus halo"});
    }
    {
        // a(24) and a(-7) are the halo's last elements on each side.
        NestBuilder b;
        b.loop("i", 1, 8);
        b.assign("b", {idx("i")},
                 add(b.read("a", {idx("i", 16)}), b.read("a", {idx("i", -8)})));
        cases.push_back({"at the halo's edges", programAround(b.build()),
                         ""});
    }
    for (std::int64_t offset : {17, -9}) {
        NestBuilder b;
        b.loop("i", 1, 8);
        b.assign("b", {idx("i")}, b.read("a", {idx("i", offset)}));
        cases.push_back({offset > 0 ? "one past the upper halo"
                                    : "one past the lower halo",
                         programAround(b.build()),
                         offset > 0 ? "subscript 25 of dimension 1"
                                    : "subscript -8 of dimension 1"});
    }
    {
        // Prefetches at the halo's edges are issued, one past dropped.
        NestBuilder b;
        b.loop("i", 1, 8);
        b.assign("b", {idx("i")}, b.read("a", {idx("i")}));
        LoopNest nest = b.build();
        for (std::int64_t offset : {16, 17, -8, -9})
            nest.body().push_back(
                Stmt::prefetch(b.ref("a", {idx("i", offset)})));
        cases.push_back({"prefetches around the halo",
                         programAround(std::move(nest)), ""});
    }
    {
        NestBuilder b;
        b.loop("i", 1, 8);
        b.assign("b", {idx("i")}, b.read("a", {idx("i")}));
        b.assign("a", {idx("i")}, b.read("zz", {idx("i")}));
        cases.push_back({"undeclared array", programAround(b.build()),
                         "undeclared array 'zz'"});
    }
    {
        NestBuilder b;
        b.loop("j", 1, 2).loop("i", 1, 4);
        b.assign("b", {idx("i")}, b.read("a", {idx("i")}));
        b.assign("b", {idx("i")}, b.read("a", {idx("i"), idx("j")}));
        cases.push_back({"rank mismatch", programAround(b.build()),
                         "rank mismatch accessing 'a'"});
    }
    {
        NestBuilder b;
        b.loop("i", 1, 8, 0);
        b.assign("a", {idx("i")}, lit(1.0));
        NestBuilder first;
        first.loop("i", 1, 4);
        first.assign("b", {idx("i")}, first.read("a", {idx("i")}));
        Program program = programAround(first.build());
        program.addNest(b.build());
        cases.push_back({"step 0", program, "has step 0"});
    }
    for (std::int64_t outer_trips : {0, 1}) {
        // The inner loop's bound names m, which nothing binds.
        NestBuilder b;
        b.loop("j", 1, outer_trips)
            .loop("i", Bound::constant(1), Bound::param("m"));
        b.assign("a", {idx("i")}, b.read("b", {idx("i")}));
        NestBuilder first;
        first.loop("i", 1, 4);
        first.assign("b", {idx("i")}, first.read("a", {idx("i")}));
        Program program = programAround(first.build());
        program.addNest(b.build());
        cases.push_back(
            {outer_trips == 0 ? "unbound parameter, zero-trip outer loop"
                              : "unbound parameter, one-trip outer loop",
             program,
             outer_trips == 0 ? "" : "unbound loop-bound parameter 'm'"});
    }
    {
        // s is read on the first iteration before anything writes it.
        NestBuilder b;
        b.loop("i", 1, 8);
        b.assign("a", {idx("i")},
                 add(Expr::scalar("s"), b.read("b", {idx("i")})));
        LoopNest nest = b.build();
        nest.body().push_back(Stmt::assignScalar(
            "s", mul(b.read("a", {idx("i")}), lit(0.5))));
        cases.push_back({"scalar read before written",
                         programAround(std::move(nest)), ""});
    }

    for (const Case &c : cases) {
        expectSameAsWalker(c.program, c.label, coverage);
        Interpreter interp(c.program);
        std::string failure = failureOf([&] { interp.run(); });
        if (*c.expect == '\0')
            EXPECT_EQ(failure, "") << c.label;
        else
            EXPECT_NE(failure.find(c.expect), std::string::npos)
                << c.label << ": " << failure;
    }
    EXPECT_EQ(coverage.failures, 7u);
}

} // namespace
} // namespace ujam
