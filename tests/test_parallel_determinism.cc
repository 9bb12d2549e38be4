/**
 * @file
 * The parallel pipeline's determinism contract, and regression
 * pinning of the allocation-free table kernels.
 *
 * Everything parallel in ujam computes into index-addressed slots
 * and reduces them in index order, so any thread count must produce
 * byte-identical output. These tests run the pipeline, the
 * brute-force baseline and the corpus census at 1, 2 and N threads
 * and compare outputs exactly. The table-kernel regressions pin the
 * stride-walk rewrites of addBox and prefixSum against
 * straightforward reference implementations (the pre-rewrite
 * algorithms). The seed computeRegisterTable, which rebuilt
 * union-find over the whole copy box for every point, is the oracle
 * for the row sweep that replaced it, compared cell for cell over
 * the suite, every scenario family and 1- to 3-dim spaces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "baseline/brute_force.hh"
#include "core/optimizer.hh"
#include "driver/driver.hh"
#include "ir/printer.hh"
#include "linalg/merge_solver.hh"
#include "parser/parser.hh"
#include "scenarios/scenario.hh"
#include "scenarios/sweep.hh"
#include "support/rng.hh"
#include "support/thread_pool.hh"
#include "transform/unroll_and_jam.hh"
#include "workloads/corpus.hh"
#include "workloads/suite.hh"

namespace ujam
{
namespace
{

// --- parallelFor basics --------------------------------------------------

/** Set UJAM_THREADS for one scope and restore it afterwards. */
class ScopedThreadsEnv
{
  public:
    explicit ScopedThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("UJAM_THREADS"))
            saved_ = old;
        ::setenv("UJAM_THREADS", value, 1);
    }
    ~ScopedThreadsEnv()
    {
        if (saved_)
            ::setenv("UJAM_THREADS", saved_->c_str(), 1);
        else
            ::unsetenv("UJAM_THREADS");
    }

  private:
    std::optional<std::string> saved_;
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(hits.size(), 4,
                [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> sum{0};
        parallelFor(100, 3, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST(ThreadPool, PropagatesExceptions)
{
    // The first failing index wins, whichever thread ran it.
    try {
        parallelFor(64, 4, [](std::size_t i) {
            if (i == 17 || i == 40)
                throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "no exception";
    } catch (const std::runtime_error &err) {
        EXPECT_STREQ(err.what(), "17");
    }
    // A throwing job leaves nothing behind for the next one.
    std::atomic<int> ran{0};
    parallelFor(8, 4, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, ConcurrentCallersRunEveryIndexOnce)
{
    // Two threads entering parallelFor at the default width at once:
    // each job must run each of its indices exactly once, and both
    // calls must return.
    ScopedThreadsEnv width("4");
    for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> first(2000);
        std::vector<std::atomic<int>> second(2000);
        auto job = [](std::vector<std::atomic<int>> &hits) {
            parallelFor(hits.size(), 0,
                        [&](std::size_t i) { hits[i].fetch_add(1); });
        };
        std::thread a(job, std::ref(first));
        std::thread b(job, std::ref(second));
        a.join();
        b.join();
        for (std::size_t i = 0; i < first.size(); ++i) {
            ASSERT_EQ(first[i].load(), 1) << round << ": " << i;
            ASSERT_EQ(second[i].load(), 1) << round << ": " << i;
        }
    }
}

TEST(ThreadPool, DefaultThreadsReadsTheEnvironmentWhole)
{
    {
        ScopedThreadsEnv width("3");
        EXPECT_EQ(defaultThreads(), 3u);
    }
    // Anything else falls back to the core count.
    std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad :
         {"3abc", "0", "-2", " 3", "", "99999999999999999999"}) {
        ScopedThreadsEnv width(bad);
        EXPECT_EQ(defaultThreads(), hw) << "'" << bad << "'";
    }
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    std::atomic<int> total{0};
    parallelFor(4, 4, [&](std::size_t) {
        // Nested requests must not deadlock or clobber the outer job.
        parallelFor(8, 0, [&](std::size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, SerialWidthRunsInCallerOrder)
{
    std::vector<std::size_t> order;
    parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// --- pipeline determinism ------------------------------------------------

Program
wholeSuiteProgram()
{
    Program all;
    for (const SuiteLoop &loop : testSuite()) {
        Program one = loadSuiteProgram(loop);
        for (const ArrayDecl &decl : one.arrays())
            all.declareArray(decl);
        for (const LoopNest &nest : one.nests())
            all.addNest(nest);
    }
    return all;
}

TEST(ParallelDeterminism, PipelineIdenticalAcrossThreadCounts)
{
    Program program = wholeSuiteProgram();
    MachineModel machine = MachineModel::decAlpha21064();

    PipelineConfig config;
    config.threads = 1;
    PipelineResult serial = optimizeProgram(program, machine, config);
    const std::string serial_summary = serial.summary();
    const std::string serial_text = renderProgram(serial.program);
    ASSERT_FALSE(serial_summary.empty());

    for (std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
        config.threads = threads;
        PipelineResult parallel =
            optimizeProgram(program, machine, config);
        EXPECT_EQ(parallel.summary(), serial_summary)
            << "threads=" << threads;
        EXPECT_EQ(renderProgram(parallel.program), serial_text)
            << "threads=" << threads;
        ASSERT_EQ(parallel.outcomes.size(), serial.outcomes.size());
        for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
            EXPECT_EQ(parallel.outcomes[i].decision.unroll,
                      serial.outcomes[i].decision.unroll);
        }
    }
}

TEST(ParallelDeterminism, PipelineWithAllStagesIdentical)
{
    Program program = wholeSuiteProgram();
    MachineModel machine = MachineModel::hpPa7100();

    PipelineConfig config;
    config.fuse = true;
    config.distribute = true;
    config.interchange = true;
    config.prefetch = true;
    config.threads = 1;
    PipelineResult serial = optimizeProgram(program, machine, config);

    config.threads = 0;
    PipelineResult parallel = optimizeProgram(program, machine, config);
    EXPECT_EQ(parallel.summary(), serial.summary());
    EXPECT_EQ(renderProgram(parallel.program),
              renderProgram(serial.program));
}

TEST(ParallelDeterminism, BruteForceIdenticalAcrossThreadCounts)
{
    MachineModel machine = MachineModel::decAlpha21064();
    for (const std::string name : {"mmjik", "jacobi", "dmxpy1"}) {
        Program program = loadSuiteProgram(suiteLoop(name));
        OptimizerConfig config;
        config.threads = 1;
        BruteForceResult serial = bruteForceChooseUnroll(
            program.nests().front(), machine, config);
        for (std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
            config.threads = threads;
            BruteForceResult parallel = bruteForceChooseUnroll(
                program.nests().front(), machine, config);
            EXPECT_EQ(parallel.unroll, serial.unroll) << name;
            EXPECT_EQ(parallel.predictedBalance,
                      serial.predictedBalance)
                << name;
            EXPECT_EQ(parallel.registers, serial.registers) << name;
            EXPECT_EQ(parallel.pointsEvaluated, serial.pointsEvaluated)
                << name;
            EXPECT_EQ(parallel.peakBodyRefs, serial.peakBodyRefs)
                << name;
            EXPECT_EQ(parallel.totalBodyRefs, serial.totalBodyRefs)
                << name;
        }
    }
}

TEST(ParallelDeterminism, CorpusIdenticalAcrossThreadCounts)
{
    CorpusConfig config;
    config.routines = 150; // subset for test speed
    config.threads = 1;
    auto serial_corpus = generateCorpus(config);
    CorpusStats serial = analyzeCorpus(serial_corpus, 1);

    for (std::size_t threads : {std::size_t{2}, std::size_t{0}}) {
        config.threads = threads;
        auto corpus = generateCorpus(config);
        ASSERT_EQ(corpus.size(), serial_corpus.size());
        for (std::size_t r = 0; r < corpus.size(); ++r) {
            ASSERT_EQ(corpus[r].nests.size(),
                      serial_corpus[r].nests.size());
            for (std::size_t n = 0; n < corpus[r].nests.size(); ++n) {
                EXPECT_EQ(renderLoopNest(corpus[r].nests[n]),
                          renderLoopNest(serial_corpus[r].nests[n]));
            }
        }
        CorpusStats stats = analyzeCorpus(corpus, threads);
        EXPECT_EQ(stats.totalDeps, serial.totalDeps);
        EXPECT_EQ(stats.totalInputDeps, serial.totalInputDeps);
        EXPECT_EQ(stats.routinesWithDeps, serial.routinesWithDeps);
        EXPECT_EQ(stats.histogram, serial.histogram);
        // Bit-identical, not approximately equal: the reduction order
        // is pinned, so even the floating-point moments must match.
        EXPECT_EQ(stats.meanInputPercent, serial.meanInputPercent);
        EXPECT_EQ(stats.stddevInputPercent, serial.stddevInputPercent);
        EXPECT_EQ(stats.graphBytes, serial.graphBytes);
        EXPECT_EQ(stats.graphBytesNoInput, serial.graphBytesNoInput);
    }
}

// --- table-kernel regressions against the pre-rewrite algorithms ---------

/** The pre-rewrite addBox: test every point against the box corner. */
void
referenceAddBox(UnrollTable &table, const IntVector &from,
                std::int64_t delta)
{
    const UnrollSpace &space = table.space();
    for (std::size_t i = 0; i < space.size(); ++i) {
        if (from.allLessEq(space.vectorAt(i)))
            table.atIndex(i) += delta;
    }
}

/** The pre-rewrite prefixSum: per-point decode and re-index. */
UnrollTable
referencePrefixSum(const UnrollTable &table)
{
    const UnrollSpace &space = table.space();
    UnrollTable result = table;
    for (std::size_t d = 0; d < space.dims().size(); ++d) {
        for (std::size_t i = 0; i < space.size(); ++i) {
            IntVector u = space.vectorAt(i);
            if (u[space.dims()[d]] == 0)
                continue;
            IntVector prev = u;
            prev[space.dims()[d]] -= 1;
            result.atIndex(i) += result.atIndex(space.indexOf(prev));
        }
    }
    return result;
}

TEST(TableKernels, AddBoxMatchesReference)
{
    Rng rng(20260806);
    for (int trial = 0; trial < 50; ++trial) {
        std::size_t depth = static_cast<std::size_t>(rng.range(2, 4));
        std::vector<std::size_t> dims;
        std::vector<std::int64_t> limits;
        for (std::size_t k = 0; k + 1 < depth; ++k) {
            if (rng.chance(0.8)) {
                dims.push_back(k);
                limits.push_back(rng.range(0, 5));
            }
        }
        UnrollSpace space(depth, dims, limits);
        UnrollTable fast(space, 0), slow(space, 0);
        for (int box = 0; box < 8; ++box) {
            IntVector from(depth);
            for (std::size_t k = 0; k < depth; ++k)
                from[k] = rng.range(-2, 6);
            std::int64_t delta = rng.range(-3, 3);
            fast.addBox(from, delta);
            referenceAddBox(slow, from, delta);
        }
        for (std::size_t i = 0; i < space.size(); ++i)
            EXPECT_EQ(fast.atIndex(i), slow.atIndex(i)) << trial;
    }
}

TEST(TableKernels, PrefixSumMatchesReference)
{
    Rng rng(424242);
    for (int trial = 0; trial < 50; ++trial) {
        std::size_t depth = static_cast<std::size_t>(rng.range(2, 4));
        std::vector<std::size_t> dims;
        std::vector<std::int64_t> limits;
        for (std::size_t k = 0; k + 1 < depth; ++k) {
            if (rng.chance(0.8)) {
                dims.push_back(k);
                limits.push_back(rng.range(0, 5));
            }
        }
        UnrollSpace space(depth, dims, limits);
        UnrollTable table(space, 0);
        for (std::size_t i = 0; i < space.size(); ++i)
            table.atIndex(i) = rng.range(-10, 10);
        UnrollTable fast = table.prefixSum();
        UnrollTable slow = referencePrefixSum(table);
        for (std::size_t i = 0; i < space.size(); ++i)
            EXPECT_EQ(fast.atIndex(i), slow.atIndex(i)) << trial;
    }
}

/**
 * The merge solver before the system was factored once per (H, L,
 * unrollable dims): a fresh elimination of [H L^T | H_u | delta] for
 * every pair. The oracle for MergeSolver.
 */
std::optional<IntVector>
referenceMergeShift(const RatMatrix &subscript, const IntVector &delta,
                    const Subspace &localized,
                    const std::vector<bool> &unrollable)
{
    const std::size_t depth = subscript.cols();
    const std::size_t dims = subscript.rows();
    std::vector<std::size_t> unroll_cols;
    for (std::size_t k = 0; k < depth; ++k) {
        if (unrollable[k])
            unroll_cols.push_back(k);
    }

    const RatMatrix &lbasis = localized.basis();
    const std::size_t ny = lbasis.rows();
    const std::size_t nu = unroll_cols.size();

    RatMatrix system(dims, ny + nu + 1);
    for (std::size_t r = 0; r < dims; ++r) {
        for (std::size_t j = 0; j < ny; ++j) {
            Rational coeff;
            for (std::size_t k = 0; k < depth; ++k)
                coeff += subscript.at(r, k) * lbasis.at(j, k);
            system.at(r, j) = coeff;
        }
        for (std::size_t j = 0; j < nu; ++j)
            system.at(r, ny + j) = subscript.at(r, unroll_cols[j]);
        system.at(r, ny + nu) = Rational(delta[r]);
    }

    std::vector<std::size_t> pivots = system.reduceToRref();
    if (!pivots.empty() && pivots.back() == ny + nu)
        return std::nullopt;

    RatVector shift(nu);
    for (std::size_t r = 0; r < pivots.size(); ++r) {
        std::size_t col = pivots[r];
        if (col < ny)
            continue;
        shift[col - ny] = system.at(r, ny + nu);
    }
    if (!allIntegral(shift))
        return std::nullopt;

    IntVector result(depth);
    for (std::size_t j = 0; j < nu; ++j) {
        std::int64_t value = shift[j].toInteger();
        if (value < 0)
            return std::nullopt;
        result[unroll_cols[j]] = value;
    }
    return result;
}

/**
 * The GTS/GSS partition before it became a group-by on a key: union-
 * find over member pairs, joining i and j when a fresh RatMatrix::solve
 * finds x in L with M x = c_j - c_i.
 */
std::vector<ReuseGroup>
referencePartition(const UniformlyGeneratedSet &ugs,
                   const RatMatrix &matrix, bool spatial,
                   const Subspace &localized)
{
    const RatMatrix &basis = localized.basis();
    RatMatrix system(matrix.rows(), basis.rows());
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
        for (std::size_t j = 0; j < basis.rows(); ++j) {
            Rational coeff;
            for (std::size_t k = 0; k < matrix.cols(); ++k)
                coeff += matrix.at(r, k) * basis.at(j, k);
            system.at(r, j) = coeff;
        }
    }

    const std::size_t n = ugs.members.size();
    std::vector<std::size_t> parent(n);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (find(i) == find(j))
                continue;
            RatVector rhs = toRatVector(ugs.members[j].ref.offset() -
                                        ugs.members[i].ref.offset());
            if (spatial && !rhs.empty())
                rhs[0] = Rational(0);
            if (system.solve(rhs).has_value())
                parent[find(i)] = find(j);
        }
    }

    std::vector<ReuseGroup> groups;
    std::vector<int> group_of(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t root = find(i);
        if (group_of[root] < 0) {
            group_of[root] = static_cast<int>(groups.size());
            groups.emplace_back();
        }
        groups[group_of[root]].members.push_back(i);
    }
    for (ReuseGroup &group : groups) {
        std::stable_sort(group.members.begin(), group.members.end(),
                         [&](std::size_t a, std::size_t b) {
                             return ugs.members[a].ref.offset().lexLess(
                                 ugs.members[b].ref.offset());
                         });
        group.leader = group.members.front();
    }
    return groups;
}

/**
 * The pre-rewrite computeRegisterTable (the seed implementation,
 * verbatim modulo formatting): per point, re-scan all npoints to find
 * the copy sub-box, vectorAt/indexOf per element, and rebuild
 * union-find over that box from scratch.
 */
UnrollTable
referenceRegisterTable(const UniformlyGeneratedSet &ugs,
                       const RrsAnalysis &rrs, const UnrollSpace &space)
{
    UnrollTable table(space, 0);
    const std::size_t nsets = rrs.sets.size();
    if (nsets == 0)
        return table;

    std::vector<std::int64_t> phase_lo(nsets), phase_hi(nsets);
    for (std::size_t r = 0; r < nsets; ++r) {
        const RegisterReuseSet &set = rrs.sets[r];
        Rational lo = touchPhase(
            ugs.members[set.members.front()].ref.offset(), rrs.innerDim,
            rrs.innerCoeff);
        phase_lo[r] = lo.floor();
        phase_hi[r] = phase_lo[r] + set.registersNeeded - 1;
    }

    std::vector<IntVector> leaders(nsets);
    std::vector<std::size_t> classes(nsets);
    for (std::size_t r = 0; r < nsets; ++r) {
        leaders[r] = rrs.sets[r].leaderOffset;
        classes[r] = rrs.sets[r].mrrs;
    }

    struct MergeEdge
    {
        std::size_t absorber;
        IntVector shift;
    };
    std::vector<std::vector<MergeEdge>> edges(nsets);
    const std::vector<bool> unrollable = space.unrollableFlags();
    const RatMatrix &subscript = ugs.subscript;
    Subspace inner =
        Subspace::coordinate(space.depth(), {space.depth() - 1});

    const bool invariant = ugs.innerInvariant();
    for (std::size_t k = 0; k < nsets; ++k) {
        if (!invariant && rrs.sets[k].generatorIsDef)
            continue;
        for (std::size_t j = 0; j < nsets; ++j) {
            if (j == k || classes[j] != classes[k])
                continue;
            IntVector delta = leaders[j] - leaders[k];
            auto shift =
                referenceMergeShift(subscript, delta, inner, unrollable);
            if (!shift.has_value() || shift->isZero())
                continue;
            if (shift->allLessEq(space.maxVector()))
                edges[k].push_back({j, *shift});
        }
        for (std::size_t dim : space.dims()) {
            IntVector unit(space.depth());
            unit[dim] = 1;
            RatVector image = subscript.apply(unit);
            IntVector target(subscript.rows());
            bool integral = true;
            for (std::size_t r = 0; r < image.size(); ++r) {
                if (!image[r].isInteger()) {
                    integral = false;
                    break;
                }
                target[r] = -image[r].toInteger();
            }
            if (!integral)
                continue;
            auto shift = referenceMergeShift(
                subscript, target, inner,
                std::vector<bool>(space.depth(), false));
            if (shift.has_value())
                edges[k].push_back({k, unit});
        }
    }

    const std::size_t npoints = space.size();
    std::vector<std::size_t> parent(nsets * npoints);
    std::vector<std::int64_t> lo(nsets * npoints), hi(nsets * npoints);

    std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };

    for (std::size_t ui = 0; ui < npoints; ++ui) {
        IntVector u = space.vectorAt(ui);
        std::vector<std::size_t> copy_index;
        for (std::size_t ci = 0; ci < npoints; ++ci) {
            if (space.vectorAt(ci).allLessEq(u))
                copy_index.push_back(ci);
        }
        for (std::size_t r = 0; r < nsets; ++r) {
            for (std::size_t ci : copy_index) {
                std::size_t id = r * npoints + ci;
                parent[id] = id;
                lo[id] = phase_lo[r];
                hi[id] = phase_hi[r];
            }
        }
        for (std::size_t r = 0; r < nsets; ++r) {
            for (std::size_t ci : copy_index) {
                IntVector up = space.vectorAt(ci);
                for (const MergeEdge &edge : edges[r]) {
                    if (!edge.shift.allLessEq(up))
                        continue;
                    IntVector origin = up - edge.shift;
                    std::size_t a = find(r * npoints + ci);
                    std::size_t b = find(edge.absorber * npoints +
                                         space.indexOf(origin));
                    if (a == b)
                        continue;
                    parent[a] = b;
                    lo[b] = std::min(lo[b], lo[a]);
                    hi[b] = std::max(hi[b], hi[a]);
                }
            }
        }
        std::int64_t registers = 0;
        for (std::size_t r = 0; r < nsets; ++r) {
            for (std::size_t ci : copy_index) {
                std::size_t id = r * npoints + ci;
                if (find(id) == id)
                    registers += hi[id] - lo[id] + 1;
            }
        }
        table.atIndex(ui) = registers;
    }
    return table;
}

/**
 * The register-table oracle's inputs: every nest of every suite loop,
 * one program per scenario family at seeds 0 and 1, two 4-deep nests
 * (3-dim spaces; the second has invariant references that absorb
 * along every unrolled dim), and the range-pruned nest whose unrolled
 * body the RRS table under-counts.
 */
std::vector<Program>
registerTablePrograms()
{
    std::vector<Program> programs;
    for (const SuiteLoop &loop : testSuite())
        programs.push_back(loadSuiteProgram(loop));
    for (const IScenarioGenerator *family : scenarioRegistry()) {
        for (const char *seed : {"0", "1"}) {
            std::string error;
            std::optional<ScenarioSpec> spec = parseScenarioSpec(
                std::string(family->family()) + "::" + seed, &error);
            if (!spec)
                throw std::runtime_error(error);
            GeneratedScenario scenario = generateScenario(*spec);
            programs.push_back(
                parseProgram(scenario.source, scenario.name));
        }
    }
    programs.push_back(parseProgram(R"(
do i = 1, 16
  do j = 1, 16
    do k = 1, 16
      do l = 1, 16
        a(i, j, k, l) = b(i, j, k, l) + b(i, j + 1, k, l) + b(i, j, k + 1, l) + b(i, j, k, l + 1)
      end do
    end do
  end do
end do
)",
                                    "four-deep"));
    programs.push_back(parseProgram(R"(
do i = 1, 12
  do j = 1, 12
    do k = 1, 12
      do l = 1, 12
        a(i, j, k, l) = a(i, j - 1, k, l) + a(i - 1, j, k + 1, l) + c(j, l) + c(k, l)
      end do
    end do
  end do
end do
)",
                                    "four-deep-invariant"));
    programs.push_back(parseProgram(R"(
do i = 1, 3
  do j = 2, 30
    a(i + 3, j - 1) = a(i, j) + b(j, i)
  end do
end do
)",
                                    "range-pruned"));
    return programs;
}

TEST(TableKernels, RegisterTableMatchesPreRewriteOnSuite)
{
    // One, two and three unrolled dims, unequal limits (zero too), and
    // dims out of nest order. Spaces stay small (limits <= 8, at most
    // 105 points): the oracle is quadratic in points, and this test
    // must stay well under a second in a sanitizer Debug build.
    struct Shape
    {
        std::vector<std::size_t> dims;
        std::vector<std::int64_t> limits;
    };
    const std::vector<Shape> shapes = {
        {{0}, {8}},
        {{1}, {5}},
        {{0, 1}, {6, 6}},
        {{0, 1}, {6, 4}},
        {{0, 1}, {5, 3}},
        {{1, 0}, {0, 4}},
        {{1, 0}, {7, 2}},
        {{0, 1, 2}, {4, 2, 6}},
        {{2, 0, 1}, {0, 4, 2}},
        {{1, 2, 0}, {3, 2, 4}},
    };
    std::size_t compared_tables = 0, three_dim_tables = 0;
    for (const Program &program : registerTablePrograms()) {
        for (const LoopNest &nest : program.nests()) {
            for (const Shape &shape : shapes) {
                bool fits = std::all_of(
                    shape.dims.begin(), shape.dims.end(),
                    [&](std::size_t dim) { return dim + 1 < nest.depth(); });
                if (!fits)
                    continue;
                UnrollSpace space(nest.depth(), shape.dims, shape.limits);
                for (const UniformlyGeneratedSet &ugs :
                     partitionUGS(nest.accesses())) {
                    if (!ugs.analyzable())
                        continue;
                    RrsAnalysis rrs = computeRegisterReuseSets(ugs);
                    UnrollTable fast = computeRegisterTable(ugs, rrs, space);
                    UnrollTable slow =
                        referenceRegisterTable(ugs, rrs, space);
                    for (std::size_t i = 0; i < space.size(); ++i)
                        ASSERT_EQ(fast.atIndex(i), slow.atIndex(i))
                            << program.sourceName() << " "
                            << nest.name() << " dims "
                            << shape.dims.size() << " index " << i;
                    ++compared_tables;
                    if (shape.dims.size() == 3)
                        ++three_dim_tables;
                }
            }
        }
    }
    // The inputs must actually exercise the kernel, 3-dim rows too.
    EXPECT_GE(compared_tables, 200u);
    EXPECT_GE(three_dim_tables, 12u);
}

/** What FactoredSolversMatchPerPairElimination compared. */
struct FactoredCounts
{
    std::size_t partitions = 0;
    std::size_t pairShifts = 0;
    std::size_t selfShifts = 0;
    std::size_t merges = 0; //!< shifts that found a merge
};

/**
 * Check the factored kernels against the per-pair elimination on one
 * nest. For every UGS and every localized space rankUnrollCandidates
 * prices (the innermost loop, and it widened by each outer loop):
 * the GTS and GSS partitions must have the same groups, member order
 * and leaders; and with H (or the spatial H and masked offsets) the
 * shift between every ordered pair of the partition's leaders and the
 * self-merge along every outer loop must match, with all outer loops
 * unrollable and with each outer loop alone.
 */
void
expectFactoredMatchesPerPair(const LoopNest &nest, const std::string &label,
                             FactoredCounts &counts)
{
    const std::size_t depth = nest.depth();
    if (depth < 2)
        return;
    std::vector<Subspace> spaces = {
        Subspace::coordinate(depth, {depth - 1})};
    std::vector<std::vector<bool>> flag_sets(1,
                                             std::vector<bool>(depth, true));
    flag_sets[0][depth - 1] = false;
    for (std::size_t k = 0; k + 1 < depth; ++k) {
        spaces.push_back(Subspace::coordinate(depth, {k, depth - 1}));
        if (depth > 2) {
            flag_sets.emplace_back(depth, false);
            flag_sets.back()[k] = true;
        }
    }
    const std::vector<bool> none(depth, false);

    for (const UniformlyGeneratedSet &ugs : partitionUGS(nest.accesses())) {
        const RatMatrix spatial =
            ugs.members.front().ref.spatialSubscriptMatrix();
        for (const Subspace &localized : spaces) {
            for (bool is_spatial : {false, true}) {
                SCOPED_TRACE(label + " array " + ugs.array + " L " +
                             localized.toString() +
                             (is_spatial ? " GSS" : " GTS"));
                const RatMatrix &matrix =
                    is_spatial ? spatial : ugs.subscript;
                std::vector<ReuseGroup> fast =
                    is_spatial ? groupSpatialSets(ugs, localized)
                               : groupTemporalSets(ugs, localized);
                std::vector<ReuseGroup> slow =
                    referencePartition(ugs, matrix, is_spatial, localized);
                ASSERT_EQ(fast.size(), slow.size());
                for (std::size_t g = 0; g < fast.size(); ++g) {
                    EXPECT_EQ(fast[g].members, slow[g].members) << g;
                    EXPECT_EQ(fast[g].leader, slow[g].leader) << g;
                }
                ++counts.partitions;

                std::vector<IntVector> leaders;
                for (const ReuseGroup &group : slow) {
                    IntVector offset = ugs.members[group.leader].ref.offset();
                    if (is_spatial)
                        offset[0] = 0;
                    leaders.push_back(offset);
                }
                for (const std::vector<bool> &flags : flag_sets) {
                    MergeSolver solver(matrix, localized, flags);
                    for (const IntVector &a : leaders) {
                        for (const IntVector &b : leaders) {
                            if (a == b)
                                continue;
                            IntVector delta = b - a;
                            std::optional<IntVector> got =
                                solver.shift(delta);
                            EXPECT_EQ(got, referenceMergeShift(
                                               matrix, delta, localized,
                                               flags))
                                << delta;
                            ++counts.pairShifts;
                            counts.merges += got.has_value();
                        }
                    }
                }
                MergeSolver self_solver(matrix, localized, none);
                for (std::size_t dim = 0; dim + 1 < depth; ++dim) {
                    IntVector unit(depth);
                    unit[dim] = 1;
                    IntVector target(matrix.rows());
                    for (std::size_t r = 0; r < matrix.rows(); ++r)
                        target[r] = -matrix.apply(unit)[r].toInteger();
                    std::optional<IntVector> got = self_solver.shift(target);
                    EXPECT_EQ(got, referenceMergeShift(matrix, target,
                                                       localized, none))
                        << "self " << dim;
                    ++counts.selfShifts;
                    counts.merges += got.has_value();
                }
            }
        }
    }
}

/**
 * The factored oracle's inputs: every suite loop, and every scenario
 * family of the default sweep manifest over its grid and seeds.
 */
std::vector<Program>
factoredSolverPrograms()
{
    std::vector<Program> programs;
    for (const SuiteLoop &loop : testSuite())
        programs.push_back(loadSuiteProgram(loop));
    const SweepManifest manifest = defaultSweepManifest();
    for (const SweepFamily &entry : manifest.families) {
        const IScenarioGenerator *generator =
            findScenarioFamily(entry.family);
        if (!generator)
            throw std::runtime_error("unknown family " + entry.family);
        std::vector<std::size_t> index(entry.grid.size(), 0);
        for (bool done = false; !done;) {
            ScenarioSpec spec;
            spec.family = entry.family;
            for (const ScenarioParam &param : generator->params())
                spec.params[param.name] = param.def;
            for (std::size_t g = 0; g < entry.grid.size(); ++g)
                spec.params[entry.grid[g].first] =
                    entry.grid[g].second[index[g]];
            for (std::uint64_t seed : manifest.seeds) {
                spec.seed = seed;
                GeneratedScenario scenario = generateScenario(spec);
                programs.push_back(
                    parseProgram(scenario.source, scenario.name));
            }
            done = true;
            for (std::size_t g = entry.grid.size(); g-- > 0;) {
                if (++index[g] < entry.grid[g].second.size()) {
                    done = false;
                    break;
                }
                index[g] = 0;
            }
        }
    }
    return programs;
}

TEST(TableKernels, FactoredSolversMatchPerPairElimination)
{
    // Each nest as written and unroll-and-jammed (main nest and
    // fringes) at (1,1), (2,3) and (3,3) on its two outermost loops,
    // clamped to the safety bounds: unrolled bodies are where one set
    // has copies x refs members.
    const MachineModel machine = MachineModel::decAlpha21064();
    const std::vector<std::vector<std::int64_t>> vectors = {
        {1, 1}, {2, 3}, {3, 3}};
    FactoredCounts counts;
    std::size_t programs = 0, unrolled = 0;
    for (const Program &program : factoredSolverPrograms()) {
        ++programs;
        OptimizerConfig config;
        config.params = program.paramDefaults();
        for (const LoopNest &nest : program.nests()) {
            const std::string label =
                program.sourceName() + " " + nest.name();
            expectFactoredMatchesPerPair(nest, label, counts);
            if (nest.depth() < 2)
                continue;
            const IntVector bounds =
                unrollProblem(nest, machine, config).safetyBounds;
            for (const std::vector<std::int64_t> &vec : vectors) {
                IntVector u(nest.depth());
                for (std::size_t k = 0; k < 2 && k + 1 < nest.depth(); ++k)
                    u[k] = std::min(vec[k], bounds[k]);
                if (u.isZero())
                    continue;
                for (const LoopNest &piece : unrollAndJamNest(nest, u)) {
                    expectFactoredMatchesPerPair(
                        piece, label + " at " + u.toString(), counts);
                    ++unrolled;
                }
            }
        }
    }
    // The inputs must reach the kernels: merges found and refused.
    EXPECT_GE(programs, 70u);
    EXPECT_GE(unrolled, 150u);
    EXPECT_GT(counts.merges, 1000u);
    EXPECT_GT(counts.pairShifts, counts.merges);
}

TEST(TableKernels, FactoredSolversMatchPerPairOnRandomMiv)
{
    // Random MIV subscripts in a 3-deep nest: scaled coefficients,
    // zero columns (a loop the array ignores) and rank-deficient H
    // (the second row a multiple of the first).
    const char *ivs[] = {"i", "j", "k"};
    auto term = [](std::ostringstream &os, std::int64_t coeff,
                   const char *iv, bool first) {
        if (coeff == 0)
            return false;
        if (coeff < 0)
            os << (first ? "-" : " - ");
        else if (!first)
            os << " + ";
        if (std::llabs(coeff) != 1)
            os << std::llabs(coeff) << "*";
        os << iv;
        return true;
    };
    FactoredCounts counts;
    for (int trial = 0; trial < 40; ++trial) {
        Rng rng(9100 + trial);
        std::int64_t h[2][3];
        for (auto &row : h)
            for (std::int64_t &coeff : row)
                coeff = rng.range(-2, 2);
        const std::int64_t zero_col = rng.range(-1, 2); // -1: none
        if (zero_col >= 0)
            h[0][zero_col] = h[1][zero_col] = 0;
        if (rng.range(0, 2) == 0) {
            const std::int64_t scale = rng.range(-2, 2);
            for (int c = 0; c < 3; ++c)
                h[1][c] = scale * h[0][c];
        }
        for (auto &row : h) {
            if (row[0] == 0 && row[1] == 0 && row[2] == 0)
                row[2] = 1; // every row indexes some loop
        }

        std::ostringstream src;
        src << "do i = 1, 12\n  do j = 1, 12\n    do k = 1, 12\n"
            << "      x = ";
        const int refs = static_cast<int>(rng.range(3, 7));
        for (int r = 0; r < refs; ++r) {
            src << (r ? " + " : "") << "a(";
            for (int row = 0; row < 2; ++row) {
                bool first = true;
                for (int c = 0; c < 3; ++c)
                    first &= !term(src, h[row][c], ivs[c], first);
                std::int64_t offset = rng.range(-3, 3);
                if (offset != 0)
                    src << (offset < 0 ? " - " : " + ")
                        << std::llabs(offset);
                src << (row == 0 ? ", " : ")");
            }
        }
        src << "\n    end do\n  end do\nend do\n";
        LoopNest nest = parseSingleNest(src.str());
        expectFactoredMatchesPerPair(nest, src.str(), counts);
    }
    EXPECT_GE(counts.partitions, 40u * 2 * 3);
    EXPECT_GT(counts.merges, 100u);
}

TEST(TableKernels, NestTablesUnchangedBySpaceShape)
{
    // The set-count builder (stride-walk box marking) against the
    // same tables computed through the public prefix-sum identity:
    // table values must be monotone box counts, spot-checked against
    // brute-force body measurement elsewhere (test_core). Here: the
    // three-dim odometer paths, which the 2-loop suite spaces miss.
    LoopNest nest = parseSingleNest(R"(
do k = 1, 16
  do j = 1, 16
    do i = 1, 16
      a(i, j, k) = a(i, j, k) + a(i+1, j, k) + a(i, j+1, k) + b(i, j, k)
    end do
  end do
end do
)");
    UnrollSpace space(3, {0, 1}, {3, 4});
    Subspace localized = Subspace::coordinate(3, {2});
    NestTables tables = buildNestTables(nest, space, localized);
    ASSERT_FALSE(tables.perUgs.empty());
    for (const UgsTables &t : tables.perUgs) {
        // Set counts grow monotonically with the unroll box.
        for (std::size_t i = 0; i < space.size(); ++i) {
            IntVector u = space.vectorAt(i);
            for (std::size_t d : space.dims()) {
                if (u[d] == 0)
                    continue;
                IntVector prev = u;
                prev[d] -= 1;
                EXPECT_LE(t.groupTemporal.at(prev),
                          t.groupTemporal.at(u));
                EXPECT_LE(t.groupSpatial.at(prev),
                          t.groupSpatial.at(u));
            }
        }
    }
}


// --- one analysis per nest --------------------------------------------

std::uint64_t
bits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void
expectSameDecision(const UnrollDecision &got, const UnrollDecision &want,
                   const std::string &what)
{
    EXPECT_EQ(got.unroll, want.unroll) << what;
    EXPECT_EQ(bits(got.predictedBalance), bits(want.predictedBalance))
        << what;
    EXPECT_EQ(bits(got.machineBalance), bits(want.machineBalance)) << what;
    EXPECT_EQ(bits(got.originalBalance), bits(want.originalBalance))
        << what;
    EXPECT_EQ(got.registers, want.registers) << what;
    EXPECT_EQ(bits(got.memOps), bits(want.memOps)) << what;
    EXPECT_EQ(bits(got.flops), bits(want.flops)) << what;
    EXPECT_EQ(bits(got.misses), bits(want.misses)) << what;
    EXPECT_EQ(got.safetyBounds, want.safetyBounds) << what;
    EXPECT_EQ(got.consideredLoops, want.consideredLoops) << what;
    EXPECT_EQ(got.searchedPoints, want.searchedPoints) << what;
}

/** @return The pick, the zero vector and the pick's radius-1 ball. */
std::vector<IntVector>
tunerVectors(const UnrollDecision &pick)
{
    std::vector<IntVector> out{pick.unroll, IntVector(pick.unroll.size())};
    const std::vector<std::size_t> &dims = pick.consideredLoops;
    std::vector<std::int64_t> step(dims.size(), -1);
    for (bool done = dims.empty(); !done;) {
        IntVector u = pick.unroll;
        for (std::size_t i = 0; i < dims.size(); ++i)
            u[dims[i]] = std::max<std::int64_t>(0, u[dims[i]] + step[i]);
        out.push_back(u);
        done = true;
        for (std::size_t i = 0; i < step.size(); ++i) {
            if (++step[i] <= 1) {
                done = false;
                break;
            }
            step[i] = -1;
        }
    }
    return out;
}

TEST(UnrollAnalysis, ReusedAnalysisAnswersLikeAFreshBuild)
{
    // Every suite loop and default-manifest scenario (grid x seeds) on
    // both manifest machines: the search and every vector the tuner
    // forces (the pick, zero, the radius-1 ball) read from one
    // analysis must give a fresh chooseUnrollAmounts' decision, field
    // by field and bit for bit, and build nothing.
    const std::vector<MachineModel> machines = {
        MachineModel::decAlpha21064(), MachineModel::hpPa7100()};
    std::size_t answered = 0;
    for (const Program &program : factoredSolverPrograms()) {
        OptimizerConfig config;
        config.params = program.paramDefaults();
        for (const MachineModel &machine : machines) {
            for (const LoopNest &nest : program.nests()) {
                if (nest.depth() < 2)
                    continue;
                OptimizerConfig reused = config;
                reused.analysis = unrollAnalysis(nest, machine, config);
                const std::string label = program.sourceName() + " on " +
                                          machine.name;

                std::uint64_t builds = nestTableBuilds();
                UnrollDecision pick =
                    chooseUnrollAmounts(nest, machine, reused);
                EXPECT_EQ(nestTableBuilds(), builds) << label;
                expectSameDecision(
                    pick, chooseUnrollAmounts(nest, machine, config),
                    label + " search");

                for (const IntVector &u : tunerVectors(pick)) {
                    OptimizerConfig fresh = config;
                    fresh.forceUnroll = u;
                    reused.forceUnroll = u;
                    builds = nestTableBuilds();
                    UnrollDecision got =
                        chooseUnrollAmounts(nest, machine, reused);
                    EXPECT_EQ(nestTableBuilds(), builds) << label;
                    expectSameDecision(
                        got, chooseUnrollAmounts(nest, machine, fresh),
                        label + " at " + u.toString());
                    ++answered;
                }
            }
        }
    }
    EXPECT_GE(answered, 800u);
}

TEST(UnrollAnalysis, RefusesAnalysisBuiltForOtherInputs)
{
    // An analysis answers only the nest and inputs it was built from:
    // another nest, or the same nest under another maxUnroll,
    // maxLoops, depRangePrune, params or line size, must get the
    // fresh decision from a build of its own.
    const MachineModel alpha = MachineModel::decAlpha21064();
    std::vector<Program> programs = factoredSolverPrograms();
    std::size_t refused = 0;
    for (std::size_t p = 0; p < programs.size(); ++p) {
        const Program &program = programs[p];
        const LoopNest &nest = program.nests()[0];
        const LoopNest &other = programs[(p + 1) % programs.size()].nests()[0];
        if (nest.depth() < 2 || other.depth() < 2 || other == nest)
            continue;
        OptimizerConfig config;
        config.params = program.paramDefaults();
        std::shared_ptr<const UnrollAnalysis> analysis =
            unrollAnalysis(nest, alpha, config);

        struct Variant
        {
            const char *what;
            const LoopNest *nest;
            MachineModel machine;
            OptimizerConfig config;
        };
        std::vector<Variant> variants(6, {"", &nest, alpha, config});
        variants[0].what = "another nest";
        variants[0].nest = &other;
        variants[1].what = "maxUnroll";
        variants[1].config.maxUnroll += 1;
        variants[2].what = "maxLoops";
        variants[2].config.maxLoops = 1;
        variants[3].what = "depRangePrune";
        variants[3].config.depRangePrune = !config.depRangePrune;
        variants[4].what = "params";
        variants[4].config.params["n"] += 1;
        variants[5].what = "line size";
        variants[5].machine.lineBytes *= 2;
        for (Variant &variant : variants) {
            const std::string label =
                program.sourceName() + ": " + variant.what;
            UnrollDecision fresh = chooseUnrollAmounts(
                *variant.nest, variant.machine, variant.config);
            variant.config.analysis = analysis;
            EXPECT_FALSE(analysis->answers(*variant.nest, variant.machine,
                                           variant.config))
                << label;
            std::uint64_t builds = nestTableBuilds();
            UnrollDecision got = chooseUnrollAmounts(
                *variant.nest, variant.machine, variant.config);
            EXPECT_EQ(nestTableBuilds(), builds + 1) << label;
            expectSameDecision(got, fresh, label);
            ++refused;
        }
    }
    EXPECT_GE(refused, 400u);
}

} // namespace
} // namespace ujam
