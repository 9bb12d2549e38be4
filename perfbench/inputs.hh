/**
 * @file
 * Seeded workload inputs for the ujam benchmark.
 *
 * Every input is a pure function of (workload seed, index): a request
 * is drawn from its own Rng::deriveStream stream, so the stream can be
 * extended lazily by any number of client threads and is still the
 * same sequence of bytes for the same seed. Programs come from the
 * scenario generators (all eight families, parameters drawn inside
 * each family's schema range) and are sent as `source` text; the
 * service under test never sees a scenario name.
 */

#ifndef UJAM_PERFBENCH_INPUTS_HH
#define UJAM_PERFBENCH_INPUTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "scenarios/sweep.hh"

namespace perfbench
{

/** One service request the benchmark sends. */
struct ServeRequest
{
    std::string op;     //!< optimize, lint or codegen
    std::string source; //!< the generated DSL program
    std::string frame;  //!< the NDJSON request line (no newline)
};

/**
 * serve_cold request `index`: a distinct program from any family;
 * 70% optimize (max_unroll 4/8/16/32 at 30/45/20/5, lint warn), 20%
 * lint, 10% codegen.
 */
ServeRequest coldRequest(std::uint64_t seed, std::uint64_t index);

/** One sweep_verify job: a scenario on a machine preset. */
struct SweepJob
{
    ujam::ScenarioSpec spec;
    std::string machine;
};

/**
 * @return The sweep_verify manifest: the default manifest's families,
 * grids, machines and pipeline with seeds {2s, 2s+1}. Seed 0 is the
 * committed default manifest.
 */
ujam::SweepManifest sweepManifest(std::uint64_t seed);

/**
 * @return The jobs of a single-pipeline manifest in the order runSweep
 * expands them (families, grid combinations with the last entry
 * fastest, seeds, machines), so rows assembled by index render the
 * same document.
 */
std::vector<SweepJob> sweepJobs(const ujam::SweepManifest &manifest);

/** @return A manifest that runs exactly one job. */
ujam::SweepManifest singleJobManifest(const ujam::SweepManifest &base,
                                      const SweepJob &job);

/** @return The manifest as JSON (for the determinism self-test). */
std::string renderManifest(const ujam::SweepManifest &manifest);

} // namespace perfbench

#endif // UJAM_PERFBENCH_INPUTS_HH
