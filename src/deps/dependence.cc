#include "deps/dependence.hh"

#include <sstream>

#include "support/diagnostics.hh"

namespace ujam
{

const char *
depKindName(DepKind kind)
{
    switch (kind) {
      case DepKind::Flow:
        return "flow";
      case DepKind::Anti:
        return "anti";
      case DepKind::Output:
        return "output";
      case DepKind::Input:
        return "input";
    }
    panic("unknown dependence kind");
}

char
depDirSymbol(DepDir dir)
{
    switch (dir) {
      case DepDir::Lt:
        return '<';
      case DepDir::Eq:
        return '=';
      case DepDir::Gt:
        return '>';
      case DepDir::Star:
        return '*';
    }
    panic("unknown dependence direction");
}

bool
Dependence::loopCarried() const
{
    for (DepDir dir : dirs) {
        if (dir != DepDir::Eq)
            return true;
    }
    return false;
}

std::string
Dependence::toString() const
{
    std::ostringstream os;
    os << depKindName(kind) << " " << src << "->" << dst << " (";
    for (std::size_t k = 0; k < dirs.size(); ++k) {
        if (k > 0)
            os << ",";
        os << depDirSymbol(dirs[k]);
    }
    os << ")";
    if (hasDistance)
        os << " d=" << distance.toString();
    if (reduction)
        os << " [reduction]";
    return os.str();
}

} // namespace ujam
