/**
 * @file
 * Dependence graph with storage accounting.
 *
 * The graph records, besides the edges themselves, the modeled memory
 * footprint of each edge so the Table-1 experiment can report how
 * much space input dependences occupy. The per-edge cost model
 * follows dependence-graph implementations of the Memoria/ParaScope
 * family: a fixed record (endpoints, kind, flags, list links) plus
 * per-loop direction and distance slots.
 */

#ifndef UJAM_DEPS_GRAPH_HH
#define UJAM_DEPS_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "deps/dependence.hh"

namespace ujam
{

/**
 * A dependence graph over one loop nest's accesses.
 */
class DependenceGraph
{
  public:
    /** Construct an empty graph for a nest of the given depth. */
    explicit DependenceGraph(std::size_t depth = 0) : depth_(depth) {}

    /** @return Nest depth the directions are indexed by. */
    std::size_t depth() const { return depth_; }

    /** Append an edge. */
    void addEdge(Dependence edge);

    /** @return All edges. */
    const std::vector<Dependence> &edges() const { return edges_; }

    /** @return Total edge count. */
    std::size_t size() const { return edges_.size(); }

    /** @return Number of edges of the given kind. */
    std::size_t countOfKind(DepKind kind) const;

    /** @return Number of input (read-read) edges. */
    std::size_t inputCount() const { return countOfKind(DepKind::Input); }

    /** @return Modeled bytes for one edge at the given nest depth. */
    static std::size_t edgeBytes(std::size_t depth);

    /** @return Modeled bytes for the whole graph. */
    std::size_t storageBytes() const;

    /**
     * @return Modeled bytes for the graph with all input edges
     * removed -- the storage a UGS-based compiler needs.
     */
    std::size_t storageBytesWithoutInput() const;

    /** @return Multi-line dump of all edges. */
    std::string toString() const;

  private:
    std::size_t depth_;
    std::vector<Dependence> edges_;
};

} // namespace ujam

#endif // UJAM_DEPS_GRAPH_HH
