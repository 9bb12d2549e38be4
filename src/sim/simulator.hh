/**
 * @file
 * Whole-program execution-time simulation.
 *
 * Drives the reference interpreter over a program with the access
 * stream fed straight into a cache simulator (the interpreter's sink
 * overload of runNest, no callback per access), and charges cycles
 * per nest:
 * steady-state issue cycles per innermost iteration (pipeline model)
 * plus miss stalls (less what software prefetching can hide). This is
 * the measurement harness behind the Figure 8/9 reproductions.
 */

#ifndef UJAM_SIM_SIMULATOR_HH
#define UJAM_SIM_SIMULATOR_HH

#include "ir/interp.hh"
#include "sim/cache.hh"
#include "sim/pipeline.hh"

namespace ujam
{

/** Result of simulating one program on one machine. */
struct SimResult
{
    double cycles = 0.0;            //!< total estimated cycles
    std::uint64_t iterations = 0;   //!< innermost iterations executed
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t prefetches = 0;   //!< prefetch statements executed
    std::uint64_t cacheMisses = 0;  //!< all misses, prefetches included
    std::uint64_t demandMisses = 0; //!< misses that stall (non-prefetch)
    double missRatio = 0.0;

    /** Per-nest cycle contributions, aligned with program nests. */
    std::vector<double> nestCycles;
};

/**
 * Simulate a program.
 *
 * @param program   The program. Its arrays are not seeded: no access
 *                  address depends on an array value, so the
 *                  estimate is the same for any contents.
 * @param machine   Target machine (cache geometry, rates, latencies).
 * @param overrides Parameter overrides for the run.
 * @param seed      No effect; kept for callers of the four-argument
 *                  form.
 * @return Cycle estimate and dynamic statistics.
 */
SimResult simulateProgram(const Program &program,
                          const MachineModel &machine,
                          const ParamBindings &overrides = {},
                          std::uint64_t seed = 1);

} // namespace ujam

#endif // UJAM_SIM_SIMULATOR_HH
