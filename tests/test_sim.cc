/**
 * @file
 * Tests for the cache simulator, the pipeline model and the program
 * simulator, including analytic miss-count checks on known access
 * patterns.
 */

#include <gtest/gtest.h>

#include "parser/parser.hh"
#include "sim/simulator.hh"
#include "support/diagnostics.hh"
#include "transform/scalar_replacement.hh"
#include "transform/unroll_and_jam.hh"

namespace ujam
{
namespace
{

TEST(CacheSim, SequentialStreamMissesOncePerLine)
{
    CacheSim cache(1024, 32, 1, 8); // 4 elements per line
    for (std::int64_t i = 0; i < 400; ++i)
        cache.access(i, false);
    EXPECT_EQ(cache.accesses(), 400u);
    EXPECT_EQ(cache.misses(), 100u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.25);
}

TEST(CacheSim, TemporalReuseHits)
{
    CacheSim cache(1024, 32, 1, 8);
    for (int round = 0; round < 10; ++round) {
        for (std::int64_t i = 0; i < 64; ++i) // 512B working set: fits
            cache.access(i, round % 2 == 0);
    }
    EXPECT_EQ(cache.misses(), 16u); // only the first sweep misses
}

TEST(CacheSim, CapacityEviction)
{
    CacheSim cache(1024, 32, 1, 8); // 128 elements capacity
    for (int round = 0; round < 4; ++round) {
        for (std::int64_t i = 0; i < 256; ++i) // 2x capacity
            cache.access(i, false);
    }
    // Every line evicted before reuse: all accesses miss at line rate.
    EXPECT_EQ(cache.misses(), 4u * 64u);
}

TEST(CacheSim, ConflictVsAssociativity)
{
    // Two streams exactly one cache-size apart: direct-mapped
    // thrashes, 2-way does not.
    CacheSim direct(1024, 32, 1, 8);
    CacheSim twoway(1024, 32, 2, 8);
    for (std::int64_t i = 0; i < 128; ++i) {
        direct.access(i, false);
        direct.access(i + 128, false);
        twoway.access(i, false);
        twoway.access(i + 128, false);
    }
    EXPECT_EQ(direct.misses(), 256u); // ping-pong, every access misses
    EXPECT_EQ(twoway.misses(), 64u);  // one miss per line per stream
}

TEST(CacheSim, LruWithinSet)
{
    // 2-way, one set per... make 2 sets: capacity 4 lines.
    CacheSim cache(128, 32, 2, 8); // 2 sets x 2 ways
    // Three lines in set 0: 0, 8(->line2... addresses in elements:
    // line = addr*8/32: addr 0..3 line0(set0), addr 8..11 line2(set0),
    // addr 16..19 line4(set0).
    cache.access(0, false);  // miss
    cache.access(8, false);  // miss
    cache.access(0, false);  // hit (LRU now 8)
    cache.access(16, false); // miss, evicts 8
    cache.access(0, false);  // hit
    cache.access(8, false);  // miss again
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(CacheSim, FlushInvalidates)
{
    CacheSim cache(1024, 32, 1, 8);
    cache.access(0, false); // cold miss
    cache.flush();
    cache.access(0, false); // the flushed line misses again
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(CacheSim, BadGeometryPanics)
{
    EXPECT_THROW(CacheSim(1000, 24, 1, 8), PanicError); // non-pow2 line
    EXPECT_THROW(CacheSim(100, 32, 1, 8), PanicError);  // ragged sets
}

TEST(Pipeline, CountsBodyOps)
{
    LoopNest nest = parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    t0 = a(i, j)
    b(i, j) = t0 * 2.0 + c(i)
    t1 = t0
  end do
end do
)");
    BodyOps ops = countBodyOps(nest);
    EXPECT_EQ(ops.loads, 2u);  // a(i,j), c(i)
    EXPECT_EQ(ops.stores, 1u); // b(i,j)
    EXPECT_EQ(ops.flops, 2u);
    EXPECT_EQ(ops.moves, 1u);  // t1 = t0
    EXPECT_EQ(ops.memOps(), 3u);
    EXPECT_EQ(ops.totalOps(), 6u);
}

TEST(Pipeline, RecurrenceDetection)
{
    // Scalar accumulation: recurrence.
    EXPECT_TRUE(bodyHasArithmeticRecurrence(parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    t = t + a(i, j)
  end do
end do
)")));
    // Pure rotation copies: no recurrence.
    EXPECT_FALSE(bodyHasArithmeticRecurrence(parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    t0 = a(i, j)
    b(i, j) = t0 + 1.0
    t1 = t0
  end do
end do
)")));
    // Rotation feeding an arithmetic use of its own chain: cycle.
    EXPECT_TRUE(bodyHasArithmeticRecurrence(parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    t0 = t1 * 0.5
    a(i, j) = t0
    t1 = t0
  end do
end do
)")));
    // Invariant array reduction: recurrence.
    EXPECT_TRUE(bodyHasArithmeticRecurrence(parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    s(j) = s(j) + a(i, j)
  end do
end do
)")));
    // Reduction over the innermost-varying element: no cross-inner
    // chain (each i accumulates a different element).
    EXPECT_FALSE(bodyHasArithmeticRecurrence(parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    s(i) = s(i) + a(i, j)
  end do
end do
)")));
    // First-order array recurrence along the innermost loop.
    EXPECT_TRUE(bodyHasArithmeticRecurrence(parseSingleNest(R"(
do j = 1, 4
  do i = 2, 4
    a(i, j) = a(i-1, j) * 0.5 + 1.0
  end do
end do
)")));
}

TEST(Pipeline, SteadyStateBounds)
{
    MachineModel machine = MachineModel::decAlpha21064();
    // 3 memory ops, 2 flops on a 1-mem/1-fp dual issue: mem-bound at 3.
    LoopNest nest = parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    c(i, j) = a(i, j) + b(i, j)
  end do
end do
)");
    EXPECT_DOUBLE_EQ(steadyStateCyclesPerIteration(nest, machine), 3.0);

    // A recurrence raises the floor to the FP latency.
    LoopNest recur = parseSingleNest(R"(
do j = 1, 4
  do i = 1, 4
    s(j) = s(j) + a(i, j)
  end do
end do
)");
    EXPECT_DOUBLE_EQ(steadyStateCyclesPerIteration(recur, machine),
                     static_cast<double>(machine.fpLatency));
}

TEST(Simulator, CyclesScaleWithWork)
{
    Program small = parseProgram(R"(
param n = 16
real a(n, n)
do j = 1, n
  do i = 1, n
    a(i, j) = a(i, j) * 0.5
  end do
end do
)");
    Program large = parseProgram(R"(
param n = 32
real a(n, n)
do j = 1, n
  do i = 1, n
    a(i, j) = a(i, j) * 0.5
  end do
end do
)");
    MachineModel machine = MachineModel::decAlpha21064();
    SimResult rs = simulateProgram(small, machine);
    SimResult rl = simulateProgram(large, machine);
    EXPECT_EQ(rs.iterations, 256u);
    EXPECT_EQ(rl.iterations, 1024u);
    EXPECT_GT(rl.cycles, 3.0 * rs.cycles);
}

TEST(Simulator, MissesMatchStreamingExpectation)
{
    // Pure streaming write over 64KB: one miss per 32B line.
    Program program = parseProgram(R"(
param n = 90
real a(n, n)
do j = 1, n
  do i = 1, n
    a(i, j) = 1.0
  end do
end do
)");
    MachineModel machine = MachineModel::decAlpha21064();
    SimResult result = simulateProgram(program, machine);
    // 8100 accesses; columns of 90 elements are not line aligned, so
    // allow one extra miss per column.
    EXPECT_GE(result.cacheMisses, 8100u / 4);
    EXPECT_LE(result.cacheMisses, 8100u / 4 + 90u);
}

TEST(Simulator, ScalarReplacementSavesCycles)
{
    Program program = parseProgram(R"(
param n = 96
real a(n + 2, n + 2)
real b(n + 2, n + 2)
do j = 1, n
  do i = 1, n
    b(i, j) = a(i, j) + a(i+1, j) + a(i+2, j)
  end do
end do
)");
    MachineModel machine = MachineModel::decAlpha21064();
    SimResult before = simulateProgram(program, machine);

    Program replaced = program;
    replaced.nests()[0] = scalarReplace(program.nests()[0]).nest;
    SimResult after = simulateProgram(replaced, machine);
    EXPECT_LT(after.cycles, before.cycles);
    EXPECT_LT(after.loads, before.loads);
}

TEST(Simulator, PrefetchHidesMissLatency)
{
    Program program = parseProgram(R"(
param n = 200
real a(n, n)
real b(n, n)
do j = 1, n
  do i = 1, n
    b(i, j) = a(i, j) * 0.5
  end do
end do
)");
    MachineModel plain = MachineModel::wideIlp();
    MachineModel prefetch = MachineModel::wideIlpPrefetch();
    SimResult without = simulateProgram(program, plain);
    SimResult with = simulateProgram(program, prefetch);
    EXPECT_EQ(without.cacheMisses, with.cacheMisses);
    EXPECT_LT(with.cycles, without.cycles);
}

TEST(Simulator, BoardCacheSoftensCapacityMisses)
{
    // Working set larger than L1 but inside the L2: with the board
    // cache the same misses cost far less.
    Program program = parseProgram(R"(
param n = 64
real a(n, n)
real b(n, n)
do r = 1, 4
  do j = 1, n
    do i = 1, n
      b(i, j) = b(i, j) + a(i, j) * 0.5
    end do
  end do
end do
)");
    MachineModel with_l2 = MachineModel::decAlpha21064();
    MachineModel without = with_l2;
    without.l2Bytes = 0;
    without.missPenaltyCycles = with_l2.missPenaltyCycles;

    SimResult a = simulateProgram(program, with_l2);
    SimResult b = simulateProgram(program, without);
    EXPECT_EQ(a.cacheMisses, b.cacheMisses); // same L1 behaviour
    EXPECT_LT(a.cycles, b.cycles);           // cheaper stalls
}

TEST(Simulator, PerNestBreakdownSumsToTotal)
{
    Program program = parseProgram(R"(
param n = 40
real a(n, n)
do j = 1, n
  do i = 1, n
    a(i, j) = 1.0
  end do
end do
do j = 1, n
  do i = 1, n
    a(i, j) = a(i, j) + 1.0
  end do
end do
)");
    MachineModel machine = MachineModel::decAlpha21064();
    SimResult result = simulateProgram(program, machine);
    ASSERT_EQ(result.nestCycles.size(), 2u);
    EXPECT_DOUBLE_EQ(result.nestCycles[0] + result.nestCycles[1],
                     result.cycles);
}

} // namespace
} // namespace ujam
