/**
 * @file
 * Loop balance (paper section 3.2).
 *
 * Loop balance compares a loop body's memory demand to its
 * floating-point work:
 *
 *     bL = (VM + U * gm/gc) / VF
 *
 * where VM counts the memory operations issued (after scalar
 * replacement), VF the flops, and U the main-memory accesses whose
 * latency cannot be hidden: with a prefetch-issue bandwidth of b and
 * a body that runs c cycles needing p prefetches, U = max(0, p - cb)
 * (prefetches that cannot be issued are dropped and become misses,
 * each costing gm/gc memory-operation equivalents). Machines without
 * prefetching have b = 0, so every main-memory access pays.
 */

#ifndef UJAM_MODEL_BALANCE_HH
#define UJAM_MODEL_BALANCE_HH

#include "model/machine.hh"

namespace ujam
{

/** Per-body operation counts feeding the balance computation. */
struct BalanceInputs
{
    double memOps = 0.0;   //!< VM: loads+stores after scalar replacement
    double flops = 0.0;    //!< VF
    double mainMemoryAccesses = 0.0; //!< p: Eq. 1 total for the body
};

/** The computed balance and its intermediate quantities. */
struct BalanceResult
{
    double balance = 0.0;     //!< bL
    double cycles = 0.0;      //!< c: steady-state cycles for the body
    double unserviced = 0.0;  //!< U: unhidden main-memory accesses
    double missCycles = 0.0;  //!< U * gm (stall cycles for the body)
};

/**
 * Compute loop balance for one (possibly unrolled) loop body.
 *
 * @param in      Operation counts for the body.
 * @param machine The target machine.
 * @return Balance and intermediates; a body with no flops gets an
 *         infinite balance.
 */
BalanceResult loopBalance(const BalanceInputs &in,
                          const MachineModel &machine);

} // namespace ujam

#endif // UJAM_MODEL_BALANCE_HH
