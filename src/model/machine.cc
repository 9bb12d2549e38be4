#include "model/machine.hh"

namespace ujam
{

MachineModel
MachineModel::decAlpha21064()
{
    MachineModel m;
    m.name = "DEC Alpha 21064";
    // Dual issue: one integer/memory pipe + one FP pipe.
    m.memOpsPerCycle = 1.0;
    m.flopsPerCycle = 1.0;
    m.fpRegisters = 32;
    m.cacheBytes = 8 * 1024; // 8KB on-chip D-cache
    m.lineBytes = 32;
    // The 21064's D-cache was direct mapped; we model it 2-way to
    // factor out base-address conflict pathologies of our fixed
    // column-major allocator (real Fortran codes dodge these with
    // array padding chosen per machine).
    m.associativity = 2;
    m.cacheHitCycles = 1.0;
    m.missPenaltyCycles = 40.0; // to memory, past the board cache
    // 21064 systems carried a large off-chip board cache.
    m.l2Bytes = 512 * 1024;
    m.l2LineBytes = 32;
    m.l2Associativity = 1;
    m.l2HitCycles = 10.0;
    m.prefetchPerCycle = 0.0;
    m.issueWidth = 2;
    m.memPorts = 1;
    m.fpUnits = 1;
    m.loadLatency = 3;
    m.fpLatency = 6;
    return m;
}

MachineModel
MachineModel::hpPa7100()
{
    MachineModel m;
    m.name = "HP PA-RISC 7100";
    // One load/store pipe; FMA-capable FP unit gives 2 flops/cycle.
    m.memOpsPerCycle = 1.0;
    m.flopsPerCycle = 2.0;
    m.fpRegisters = 28; // 32 minus reserved temporaries
    m.cacheBytes = 64 * 1024; // large off-chip D-cache
    m.lineBytes = 32;
    m.associativity = 2; // see the 21064 note

    m.cacheHitCycles = 1.0;
    m.missPenaltyCycles = 30.0;
    m.prefetchPerCycle = 0.0;
    m.issueWidth = 2;
    m.memPorts = 1;
    m.fpUnits = 1; // FMA unit; flopsPerCycle carries the 2x
    m.loadLatency = 2;
    m.fpLatency = 2;
    return m;
}

MachineModel
MachineModel::wideIlp()
{
    MachineModel m;
    m.name = "wide ILP";
    m.memOpsPerCycle = 2.0;
    m.flopsPerCycle = 4.0;
    m.fpRegisters = 128;
    m.cacheBytes = 32 * 1024;
    m.lineBytes = 64;
    m.associativity = 4;
    m.cacheHitCycles = 1.0;
    m.missPenaltyCycles = 60.0;
    m.prefetchPerCycle = 0.0;
    m.issueWidth = 6;
    m.memPorts = 2;
    m.fpUnits = 4;
    m.loadLatency = 3;
    m.fpLatency = 4;
    return m;
}

MachineModel
MachineModel::wideIlpPrefetch()
{
    MachineModel m = wideIlp();
    m.name = "wide ILP + prefetch";
    m.prefetchPerCycle = 0.5;
    return m;
}

std::optional<MachineModel>
machinePreset(const std::string &name)
{
    if (name == "alpha")
        return MachineModel::decAlpha21064();
    if (name == "parisc")
        return MachineModel::hpPa7100();
    if (name == "wide")
        return MachineModel::wideIlp();
    if (name == "wide-prefetch")
        return MachineModel::wideIlpPrefetch();
    return std::nullopt;
}

} // namespace ujam
