#include "deps/graph.hh"

#include <sstream>

#include "support/diagnostics.hh"

namespace ujam
{

void
DependenceGraph::addEdge(Dependence edge)
{
    UJAM_ASSERT(edge.dirs.size() == depth_,
                "edge direction arity does not match nest depth");
    edges_.push_back(std::move(edge));
}

std::size_t
DependenceGraph::countOfKind(DepKind kind) const
{
    std::size_t count = 0;
    for (const Dependence &edge : edges_)
        count += (edge.kind == kind);
    return count;
}

std::size_t
DependenceGraph::edgeBytes(std::size_t depth)
{
    // Fixed record: two endpoint ids (8), kind+flags (8), per-endpoint
    // adjacency links (16), reference back-pointers (16); then one
    // direction byte and one 8-byte distance slot per loop level,
    // rounded to the allocator's 8-byte granularity.
    std::size_t variable = depth * 9;
    variable = (variable + 7) / 8 * 8;
    return 48 + variable;
}

std::size_t
DependenceGraph::storageBytes() const
{
    return edges_.size() * edgeBytes(depth_);
}

std::size_t
DependenceGraph::storageBytesWithoutInput() const
{
    return (edges_.size() - inputCount()) * edgeBytes(depth_);
}

std::string
DependenceGraph::toString() const
{
    std::ostringstream os;
    for (const Dependence &edge : edges_)
        os << edge.toString() << "\n";
    return os.str();
}

} // namespace ujam
