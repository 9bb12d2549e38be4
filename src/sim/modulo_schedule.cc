#include "sim/modulo_schedule.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "reuse/ugs.hh"
#include "support/diagnostics.hh"

namespace ujam
{

std::size_t
OpGraph::memOps() const
{
    std::size_t count = 0;
    for (const OpNode &node : nodes) {
        count += (node.kind == OpNode::Kind::Load ||
                  node.kind == OpNode::Kind::Store ||
                  node.kind == OpNode::Kind::Prefetch);
    }
    return count;
}

std::size_t
OpGraph::fpOps() const
{
    std::size_t count = 0;
    for (const OpNode &node : nodes)
        count += (node.kind == OpNode::Kind::Fp);
    return count;
}

namespace
{

/** Builder state while walking the body. */
struct GraphBuilder
{
    const MachineModel &machine;
    OpGraph graph;
    //! Scalar name -> defining node, for intra-iteration flow.
    std::map<std::string, std::size_t> defined;
    //! Scalar reads that precede the definition (cross-iteration).
    std::vector<std::pair<std::string, std::size_t>> early_uses;
    //! Memory accesses by node, for memory-carried recurrences.
    std::vector<std::pair<ArrayRef, std::size_t>> loads;
    std::vector<std::pair<ArrayRef, std::size_t>> stores;

    std::size_t
    addNode(OpNode::Kind kind, int latency)
    {
        graph.nodes.push_back({kind, latency});
        return graph.nodes.size() - 1;
    }

    void
    addEdge(std::size_t src, std::size_t dst, int latency, int distance)
    {
        graph.edges.push_back({src, dst, latency, distance});
    }

    /**
     * Lower an expression; @return the producing node, or npos for
     * constants and not-yet-defined scalars.
     */
    std::size_t
    lowerExpr(const Expr &expr, std::size_t consumer)
    {
        switch (expr.kind()) {
          case Expr::Kind::Constant:
            return SIZE_MAX;
          case Expr::Kind::Scalar: {
            auto it = defined.find(expr.scalarName());
            if (it != defined.end())
                return it->second;
            // Defined later in the body (rotation) or live-in: record
            // for a cross-iteration edge once the definition appears.
            early_uses.emplace_back(expr.scalarName(), consumer);
            return SIZE_MAX;
          }
          case Expr::Kind::ArrayRead: {
            std::size_t node =
                addNode(OpNode::Kind::Load, machine.loadLatency);
            loads.emplace_back(expr.ref(), node);
            return node;
          }
          case Expr::Kind::Binary: {
            std::size_t node =
                addNode(OpNode::Kind::Fp, machine.fpLatency);
            std::size_t lhs = lowerExpr(*expr.lhs(), node);
            std::size_t rhs = lowerExpr(*expr.rhs(), node);
            if (lhs != SIZE_MAX)
                addEdge(lhs, node, graph.nodes[lhs].latency, 0);
            if (rhs != SIZE_MAX)
                addEdge(rhs, node, graph.nodes[rhs].latency, 0);
            return node;
          }
        }
        panic("unknown expression kind");
    }
};

/**
 * Longest-path feasibility at a candidate II: infeasible iff the
 * constraint graph t_dst >= t_src + latency - II*distance contains a
 * positive cycle (Bellman-Ford style relaxation).
 */
bool
feasibleII(const OpGraph &graph, int ii)
{
    const std::size_t n = graph.nodes.size();
    std::vector<long long> dist(n, 0);
    for (std::size_t round = 0; round <= n; ++round) {
        bool changed = false;
        for (const OpEdge &edge : graph.edges) {
            long long bound = dist[edge.src] + edge.latency -
                              static_cast<long long>(ii) * edge.distance;
            if (bound > dist[edge.dst]) {
                dist[edge.dst] = bound;
                changed = true;
            }
        }
        if (!changed)
            return true;
    }
    return false; // still relaxing after n rounds: positive cycle
}

} // namespace

OpGraph
OpGraph::fromBody(const LoopNest &nest, const MachineModel &machine)
{
    GraphBuilder builder{machine, {}, {}, {}, {}, {}};

    for (const Stmt &stmt : nest.body()) {
        if (stmt.isPrefetch()) {
            builder.addNode(OpNode::Kind::Prefetch, 1);
            continue;
        }

        if (stmt.lhsIsArray()) {
            // The store consumes the value; it also serves as the
            // consumer for a bare-scalar RHS.
            std::size_t store = builder.addNode(OpNode::Kind::Store, 1);
            std::size_t value = builder.lowerExpr(*stmt.rhs(), store);
            if (value != SIZE_MAX)
                builder.addEdge(value, store,
                                builder.graph.nodes[value].latency, 0);
            builder.stores.emplace_back(stmt.lhsRef(), store);
            continue;
        }

        // Scalar destination: the producing node becomes the scalar's
        // definition. A bare-scalar RHS is a register move; a
        // constant RHS defines nothing schedulable.
        std::size_t root;
        if (stmt.rhs()->kind() == Expr::Kind::Scalar) {
            std::size_t node = builder.addNode(OpNode::Kind::Move, 1);
            std::size_t src = builder.lowerExpr(*stmt.rhs(), node);
            if (src != SIZE_MAX)
                builder.addEdge(src, node,
                                builder.graph.nodes[src].latency, 0);
            root = node;
        } else {
            root = builder.lowerExpr(*stmt.rhs(), SIZE_MAX);
        }
        builder.defined[stmt.lhsScalar()] = root;
    }

    // Cross-iteration scalar flow: a use that preceded its (re)
    // definition reads last iteration's value.
    for (const auto &[name, consumer] : builder.early_uses) {
        auto it = builder.defined.find(name);
        if (it == builder.defined.end() || it->second == SIZE_MAX ||
            consumer == SIZE_MAX) {
            continue; // live-in or constant-defined: no constraint
        }
        builder.addEdge(it->second, consumer,
                        builder.graph.nodes[it->second].latency, 1);
    }

    // Memory-carried flow: a load of what a store in the same
    // uniformly generated set wrote d innermost iterations earlier.
    const std::size_t depth = nest.depth();
    for (const auto &[store_ref, store_node] : builder.stores) {
        if (depth == 0 || !store_ref.isSivSeparable())
            continue;
        auto [inner_dim, inner_coeff] =
            store_ref.termForLoop(depth - 1);
        for (const auto &[load_ref, load_node] : builder.loads) {
            if (!load_ref.uniformlyGeneratedWith(store_ref))
                continue;
            IntVector delta = store_ref.offset() - load_ref.offset();
            if (inner_dim < 0) {
                // Invariant reduction: same element next iteration.
                if (delta.isZero())
                    builder.addEdge(store_node, load_node, 1, 1);
                continue;
            }
            bool other_dims_zero = true;
            for (std::size_t d = 0; d < delta.size(); ++d) {
                if (static_cast<int>(d) != inner_dim && delta[d] != 0)
                    other_dims_zero = false;
            }
            if (!other_dims_zero)
                continue;
            std::int64_t num =
                delta[static_cast<std::size_t>(inner_dim)];
            if (num % inner_coeff != 0)
                continue;
            std::int64_t d = num / inner_coeff;
            if (d >= 1) {
                builder.addEdge(store_node, load_node, 1,
                                static_cast<int>(d));
            }
        }
    }
    return builder.graph;
}

ModuloScheduleResult
moduloSchedule(const OpGraph &graph, const MachineModel &machine)
{
    ModuloScheduleResult result;
    const std::size_t n = graph.nodes.size();
    if (n == 0)
        return result;

    // Resource MII.
    double mem = static_cast<double>(graph.memOps()) /
                 std::max(1, machine.memPorts);
    double fp = static_cast<double>(graph.fpOps()) /
                std::max(1.0, machine.flopsPerCycle);
    double issue = static_cast<double>(n) /
                   std::max(1, machine.issueWidth);
    result.resourceMii = std::max(
        1, static_cast<int>(std::ceil(std::max({mem, fp, issue}))));

    // Recurrence MII: smallest II with no positive constraint cycle.
    int lo = 1;
    int hi = 1;
    for (const OpNode &node : graph.nodes)
        hi += node.latency;
    while (!feasibleII(graph, hi))
        hi *= 2; // safety; distances >= 1 make large II feasible
    while (lo < hi) {
        int mid = lo + (hi - lo) / 2;
        if (feasibleII(graph, mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    result.recurrenceMii = lo;

    // Iterative scheduling: at each candidate II place nodes in
    // topological-ish order of intra-iteration edges, honoring all
    // constraints against already-placed nodes and the modulo
    // resource table; retry at II+1 on failure.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    // Height priority: longest intra-iteration path to any sink.
    std::vector<int> height(n, 0);
    for (std::size_t round = 0; round < n; ++round) {
        for (const OpEdge &edge : graph.edges) {
            if (edge.distance == 0) {
                height[edge.src] = std::max(
                    height[edge.src], height[edge.dst] + edge.latency);
            }
        }
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return height[a] > height[b];
                     });

    for (int ii = result.mii(); ; ++ii) {
        std::vector<int> start(n, -1);
        std::vector<int> mem_slots(static_cast<std::size_t>(ii), 0);
        std::vector<int> fp_slots(static_cast<std::size_t>(ii), 0);
        std::vector<int> issue_slots(static_cast<std::size_t>(ii), 0);
        int fp_capacity = static_cast<int>(
            std::max(1.0, machine.flopsPerCycle));
        bool ok = true;

        for (std::size_t v : order) {
            int earliest = 0;
            bool progressed = true;
            // Constraints against already-placed nodes can interact
            // with resource probing; loop to a fixed point.
            while (progressed) {
                progressed = false;
                for (const OpEdge &edge : graph.edges) {
                    if (edge.dst != v || start[edge.src] < 0)
                        continue;
                    int bound = start[edge.src] + edge.latency -
                                ii * edge.distance;
                    if (bound > earliest) {
                        earliest = bound;
                        progressed = false;
                    }
                }
                // Find a start cycle with a free modulo slot.
                int tried = 0;
                int t = std::max(earliest, 0);
                for (; tried < ii; ++tried, ++t) {
                    std::size_t slot =
                        static_cast<std::size_t>(t % ii);
                    bool mem_op =
                        graph.nodes[v].kind == OpNode::Kind::Load ||
                        graph.nodes[v].kind == OpNode::Kind::Store ||
                        graph.nodes[v].kind == OpNode::Kind::Prefetch;
                    bool fp_op =
                        graph.nodes[v].kind == OpNode::Kind::Fp;
                    if (issue_slots[slot] >= machine.issueWidth)
                        continue;
                    if (mem_op && mem_slots[slot] >= machine.memPorts)
                        continue;
                    if (fp_op && fp_slots[slot] >= fp_capacity)
                        continue;
                    start[v] = t;
                    ++issue_slots[slot];
                    if (mem_op)
                        ++mem_slots[slot];
                    if (fp_op)
                        ++fp_slots[slot];
                    break;
                }
                if (tried == ii) {
                    ok = false;
                }
                break;
            }
            if (!ok)
                break;
        }

        if (!ok)
            continue;
        // Verify every constraint (cross-iteration edges against
        // later-placed nodes included).
        bool valid = true;
        for (const OpEdge &edge : graph.edges) {
            if (start[edge.dst] <
                start[edge.src] + edge.latency - ii * edge.distance) {
                valid = false;
                break;
            }
        }
        if (!valid)
            continue;

        result.achievedII = ii;
        result.startCycle = start;
        int last = 0;
        for (int t : start)
            last = std::max(last, t);
        result.scheduleLength = last + 1;
        return result;
    }
}

double
softwarePipelinedII(const LoopNest &nest, const MachineModel &machine)
{
    OpGraph graph = OpGraph::fromBody(nest, machine);
    if (graph.nodes.empty())
        return 1.0;
    return static_cast<double>(
        moduloSchedule(graph, machine).achievedII);
}

} // namespace ujam
