/**
 * @file
 * Target machine models.
 *
 * Machine balance (paper section 3.1) is the peak rate at which data
 * can be fetched from memory relative to the peak floating-point
 * rate. The presets model the paper's two evaluation machines (DEC
 * Alpha 21064 and HP PA-RISC 7100) at the level of detail the balance
 * model and the simulator consume: issue rates, register count, cache
 * geometry, latencies and (for the future-work experiments) a
 * software-prefetch issue bandwidth.
 */

#ifndef UJAM_MODEL_MACHINE_HH
#define UJAM_MODEL_MACHINE_HH

#include <cstdint>
#include <optional>
#include <string>

namespace ujam
{

/**
 * Parameters of a target machine.
 */
struct MachineModel
{
    std::string name;

    // --- balance (section 3.1) ---
    double memOpsPerCycle = 1.0;  //!< peak words/cycle from cache
    double flopsPerCycle = 1.0;   //!< peak flops/cycle

    // --- registers ---
    std::int64_t fpRegisters = 32; //!< registers available to scalar
                                   //!< replacement

    // --- cache ---
    std::int64_t cacheBytes = 8 * 1024;
    std::int64_t lineBytes = 32;
    std::int64_t associativity = 1;
    std::int64_t elementBytes = 8; //!< double precision words

    double cacheHitCycles = 1.0;    //!< gamma_c: cache access cost
    double missPenaltyCycles = 24.0; //!< gamma_m: miss penalty (to
                                     //!< memory; past L2 if present)

    // --- optional second-level (board) cache: 0 bytes = none ---
    std::int64_t l2Bytes = 0;
    std::int64_t l2LineBytes = 32;
    std::int64_t l2Associativity = 1;
    double l2HitCycles = 10.0; //!< L1-miss/L2-hit stall

    // --- software prefetching (0 = not supported) ---
    double prefetchPerCycle = 0.0; //!< b: prefetch issue bandwidth

    // --- pipeline (simulator) ---
    int issueWidth = 2;
    int memPorts = 1;
    int fpUnits = 1;
    int loadLatency = 3; //!< cache-hit load-to-use latency
    int fpLatency = 4;   //!< FP result latency (pipelined units)

    /** @return beta_M = memory rate / flop rate. */
    double
    machineBalance() const
    {
        return memOpsPerCycle / flopsPerCycle;
    }

    /** @return Cache line size in array elements. */
    std::int64_t
    lineElems() const
    {
        return lineBytes / elementBytes;
    }

    /** @return True iff a second-level cache is modeled. */
    bool
    hasL2() const
    {
        return l2Bytes > 0;
    }

    /** @return Miss cost in units of memory operations (gm/gc). */
    double
    missCostRatio() const
    {
        return missPenaltyCycles / cacheHitCycles;
    }

    /** DEC Alpha 21064-like preset (Figure 8 machine). */
    static MachineModel decAlpha21064();

    /** HP PA-RISC 7100-like preset (Figure 9 machine). */
    static MachineModel hpPa7100();

    /** A wider machine with a large register file (section 6). */
    static MachineModel wideIlp();

    /** wideIlp with software prefetching enabled (section 6). */
    static MachineModel wideIlpPrefetch();
};

/**
 * @return The preset for a command-line / wire name
 * (alpha/parisc/wide/wide-prefetch), or nothing. Every CLI
 * `--machine` flag, the service's "machine" field and the sweep
 * manifest's "machines" list resolve names here.
 */
std::optional<MachineModel> machinePreset(const std::string &name);

} // namespace ujam

#endif // UJAM_MODEL_MACHINE_HH
