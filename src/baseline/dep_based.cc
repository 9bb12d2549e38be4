#include "baseline/dep_based.hh"

#include <map>

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/**
 * Rebuild the per-UGS group-temporal tables from dependence edges:
 * an edge between two accesses of a UGS whose distance is zero on
 * every non-unrolled outer loop gives an absorption point equal to
 * the distance restricted to the unrolled dims.
 */
void
replaceGtsTablesFromEdges(const LoopNest &nest,
                          const DependenceGraph &graph,
                          NestTables &tables)
{
    const UnrollSpace &space = tables.space;
    const std::size_t depth = nest.depth();
    const std::vector<Access> accesses = nest.accesses();
    std::vector<UniformlyGeneratedSet> sets = partitionUGS(accesses);
    UJAM_ASSERT(sets.size() == tables.perUgs.size(),
                "table/UGS partition mismatch");

    // Map access ordinal -> (ugs, gts) ids.
    std::vector<int> ugs_of(accesses.size(), -1);
    std::vector<int> gts_of(accesses.size(), -1);
    std::vector<std::vector<std::vector<ReuseGroup>>> partitions;
    for (std::size_t s = 0; s < sets.size(); ++s) {
        if (!sets[s].analyzable())
            continue;
        std::vector<ReuseGroup> gts =
            groupTemporalSets(sets[s], tables.localized);
        for (std::size_t g = 0; g < gts.size(); ++g) {
            for (std::size_t m : gts[g].members) {
                ugs_of[sets[s].members[m].ordinal] =
                    static_cast<int>(s);
                gts_of[sets[s].members[m].ordinal] =
                    static_cast<int>(g);
            }
        }
        // Absorption points per GTS of this UGS, from the edges.
        std::vector<std::vector<IntVector>> points(gts.size());
        for (const Dependence &edge : graph.edges()) {
            if (edge.src >= accesses.size() ||
                edge.dst >= accesses.size())
                continue;
            if (ugs_of[edge.src] != static_cast<int>(s) ||
                ugs_of[edge.dst] != static_cast<int>(s))
                continue;
            if (edge.distance.size() != depth)
                continue;
            // Restrict the distance to the unroll dims; any residual
            // on a non-unrolled outer loop means the reuse cannot be
            // captured by unrolling.
            IntVector point(depth);
            bool usable = true;
            const std::vector<bool> unrollable =
                space.unrollableFlags();
            for (std::size_t k = 0; k + 1 < depth; ++k) {
                std::int64_t d = edge.distance[k];
                bool star = edge.dirs[k] == DepDir::Star;
                if (unrollable[k]) {
                    // Star on an unrolled dim: the representative
                    // distance (1) models invariant self reuse.
                    if (d < 0)
                        usable = false;
                    point[k] = d;
                } else if (d != 0 && !star) {
                    usable = false;
                } else if (star && !edge.representative) {
                    usable = false;
                }
            }
            if (!usable || point.isZero())
                continue;
            // The sink's copies duplicate the source's earlier copies.
            // A same-GTS edge (e.g. the self input dependence of a
            // loop-invariant reference) is a self-absorption point:
            // the set's own copies coincide from that shift on.
            int sink_gts = gts_of[edge.dst];
            int src_gts = gts_of[edge.src];
            if (sink_gts < 0 || src_gts < 0)
                continue;
            if (point.allLessEq(space.maxVector()))
                points[static_cast<std::size_t>(sink_gts)].push_back(
                    point);
        }

        // Same counting scheme as the UGS tables (Fig. 2).
        UnrollTable new_sets(space,
                             static_cast<std::int64_t>(gts.size()));
        for (std::size_t g = 0; g < gts.size(); ++g) {
            for (std::size_t i = 0; i < space.size(); ++i) {
                IntVector u = space.vectorAt(i);
                for (const IntVector &p : points[g]) {
                    if (p.allLessEq(u)) {
                        new_sets.atIndex(i) -= 1;
                        break;
                    }
                }
            }
        }
        tables.perUgs[s].groupTemporal = new_sets.prefixSum();
    }
}

} // namespace

std::size_t
ugsModelBytes(const LoopNest &nest)
{
    std::size_t bytes = 0;
    for (const UniformlyGeneratedSet &ugs : partitionUGS(nest.accesses())) {
        // One H per set: dims x depth coefficients (8 bytes each).
        bytes += ugs.subscript.rows() * ugs.subscript.cols() * 8;
        // Per member: offset vector + back-pointer.
        bytes += ugs.members.size() *
                 (ugs.subscript.rows() * 8 + 16);
        // Set header.
        bytes += 32;
    }
    return bytes;
}

DepBasedResult
depBasedChooseUnroll(const LoopNest &nest, const MachineModel &machine,
                     const OptimizerConfig &config)
{
    DepBasedResult result;
    if (nest.depth() < 2) {
        result.decision = chooseUnrollAmounts(nest, machine, config);
        return result;
    }

    // The whole point: this model must build and keep the full graph,
    // input dependences included, to read its group reuse off edges.
    DependenceGraph graph = analyzeDependences(nest);
    result.graphEdges = graph.size();
    result.inputEdges = graph.inputCount();
    result.graphBytes = graph.storageBytes();
    result.graphBytesNoInput = graph.storageBytesWithoutInput();

    UnrollProblem problem = unrollProblem(nest, machine, config);
    NestTables tables =
        buildNestTables(nest, problem.space, problem.localized);
    replaceGtsTablesFromEdges(nest, graph, tables);
    result.decision = decideUnroll(nest, machine, config, problem, tables);
    return result;
}

} // namespace ujam
