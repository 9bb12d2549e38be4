#include "model/balance.hh"

#include <algorithm>
#include <limits>

namespace ujam
{

BalanceResult
loopBalance(const BalanceInputs &in, const MachineModel &machine)
{
    BalanceResult result;
    // Steady-state issue cycles: memory and FP pipes run in parallel.
    double mem_cycles = in.memOps / machine.memOpsPerCycle;
    double fp_cycles = in.flops / machine.flopsPerCycle;
    result.cycles = std::max(mem_cycles, fp_cycles);

    double hidden = result.cycles * machine.prefetchPerCycle;
    result.unserviced = std::max(0.0, in.mainMemoryAccesses - hidden);
    result.missCycles = result.unserviced * machine.missPenaltyCycles;

    if (in.flops <= 0.0) {
        result.balance = std::numeric_limits<double>::infinity();
        return result;
    }
    result.balance =
        (in.memOps + result.unserviced * machine.missCostRatio()) /
        in.flops;
    return result;
}

} // namespace ujam
