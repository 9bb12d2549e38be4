#include "sim/simulator.hh"

#include <algorithm>
#include <optional>

namespace ujam
{

SimResult
simulateProgram(const Program &program, const MachineModel &machine,
                const ParamBindings &overrides, std::uint64_t)
{
    SimResult result;
    // No access address depends on an array value, so the arrays keep
    // their zeros: hashing them would not change one counted access.
    Interpreter interp(program, overrides);

    CacheSim cache(machine.cacheBytes, machine.lineBytes,
                   machine.associativity, machine.elementBytes);
    std::optional<CacheSim> l2;
    if (machine.hasL2()) {
        l2.emplace(machine.l2Bytes, machine.l2LineBytes,
                   machine.l2Associativity, machine.elementBytes);
    }
    std::uint64_t prefetch_misses = 0; //!< L1 misses from prefetches
    std::uint64_t l2_misses = 0;       //!< demand misses past the L2
    auto feed = [&](std::int64_t addr, MemAccessKind kind) {
        bool hit = cache.access(addr, kind == MemAccessKind::Write);
        if (hit)
            return;
        bool l2_hit = !l2 || l2->access(addr, kind == MemAccessKind::Write);
        if (kind == MemAccessKind::Prefetch)
            ++prefetch_misses;
        else if (!l2_hit)
            ++l2_misses;
    };

    for (const LoopNest &nest : program.nests()) {
        std::uint64_t iters_before = interp.iterationCount();
        std::uint64_t header_before = interp.headerStmtCount();
        std::uint64_t misses_before = cache.misses();
        std::uint64_t pf_misses_before = prefetch_misses;
        std::uint64_t l2_misses_before = l2_misses;

        interp.runNest(nest, feed);

        std::uint64_t iters =
            interp.iterationCount() - iters_before;
        std::uint64_t headers =
            interp.headerStmtCount() - header_before;
        // Prefetch misses consume bandwidth (already charged as body
        // memory operations) but never stall the pipeline.
        std::uint64_t misses = (cache.misses() - misses_before) -
                               (prefetch_misses - pf_misses_before);
        std::uint64_t deep = l2_misses - l2_misses_before;

        double ii = steadyStateCyclesPerIteration(nest, machine);
        double issue_cycles = ii * static_cast<double>(iters) +
                              static_cast<double>(headers);

        // Software prefetching hides up to b prefetches per issued
        // cycle; the rest stall: L2 hits for the short penalty, L2
        // misses (all of them, when no L2 exists) for the full one.
        double hidden = issue_cycles * machine.prefetchPerCycle;
        double stalled =
            std::max(0.0, static_cast<double>(misses) - hidden);
        double nest_cycles = issue_cycles;
        if (machine.hasL2()) {
            double deep_fraction =
                misses > 0 ? static_cast<double>(deep) /
                                 static_cast<double>(misses)
                           : 0.0;
            nest_cycles +=
                stalled * (1.0 - deep_fraction) * machine.l2HitCycles +
                stalled * deep_fraction * machine.missPenaltyCycles;
        } else {
            nest_cycles += stalled * machine.missPenaltyCycles;
        }

        result.nestCycles.push_back(nest_cycles);
        result.cycles += nest_cycles;
    }

    result.iterations = interp.iterationCount();
    result.loads = interp.loadCount();
    result.stores = interp.storeCount();
    result.prefetches = interp.prefetchCount();
    result.cacheMisses = cache.misses();
    result.demandMisses = cache.misses() - prefetch_misses;
    result.missRatio = cache.missRatio();
    return result;
}

} // namespace ujam
