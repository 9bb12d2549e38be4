#include "ir/interp.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

/** SplitMix64-style hash for deterministic array seeding. */
std::uint64_t
mixHash(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

Interpreter::Interpreter(const Program &program,
                         const ParamBindings &overrides)
    : program_(program), params_(program.paramDefaults())
{
    for (const auto &[name, value] : overrides)
        params_[name] = value;

    std::int64_t next_base = 0;
    for (const ArrayDecl &decl : program.arrays()) {
        ArrayStorage array{arrayLayout(decl, params_), decl.name,
                           next_base, {}};
        array.data.assign(static_cast<std::size_t>(array.total), 0.0);
        next_base += array.total;

        array_index_[array.name] = arrays_.size();
        arrays_.push_back(std::move(array));
    }
}

void
Interpreter::seedArrays(std::uint64_t seed)
{
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        ArrayStorage &array = arrays_[a];
        for (std::size_t i = 0; i < array.data.size(); ++i) {
            std::uint64_t h = mixHash(seed ^ mixHash(a * 0x10001ULL + i));
            // Values in [1, 2): safe divisors, no cancellation blowup.
            array.data[i] = 1.0 + static_cast<double>(h % 1000003) / 1000003.0;
        }
    }
}

void
Interpreter::setAccessCallback(AccessCallback callback)
{
    callback_ = std::move(callback);
}

void
Interpreter::trackSubscriptRanges(bool enabled)
{
    trackRanges_ = enabled;
}

const Interpreter::ArrayStorage &
Interpreter::storage(const std::string &name) const
{
    auto it = array_index_.find(name);
    if (it == array_index_.end())
        fatal("reference to undeclared array '", name, "'");
    return arrays_[it->second];
}

Interpreter::ArrayStorage &
Interpreter::storage(const std::string &name)
{
    auto it = array_index_.find(name);
    if (it == array_index_.end())
        fatal("reference to undeclared array '", name, "'");
    return arrays_[it->second];
}

std::int64_t
Interpreter::flatIndex(const ArrayStorage &array, const ArrayRef &ref) const
{
    UJAM_ASSERT(ref.dims() == array.extents.size(),
                "rank mismatch accessing '", array.name, "'");
    std::int64_t index = 0;
    for (std::size_t d = 0; d < ref.dims(); ++d) {
        std::int64_t sub = ref.offset()[d];
        const IntVector &row = ref.row(d);
        for (std::size_t k = 0; k < row.size(); ++k) {
            if (row[k] != 0)
                sub += row[k] * iv_values_[k];
        }
        // 1-based subscript with a halo margin on each side.
        std::int64_t shifted = sub - 1 + ArrayLayout::haloElems;
        if (shifted < 0 ||
            shifted >= array.extents[d] + 2 * ArrayLayout::haloElems) {
            fatal("subscript ", sub, " of dimension ", d + 1,
                  " of array '", array.name, "' is outside extent ",
                  array.extents[d], " plus halo");
        }
        if (trackRanges_) {
            auto [it, fresh] = observed_.try_emplace(array.name);
            if (fresh) {
                // Inverted sentinels; every dimension is visited by
                // this very loop, so they never leak out.
                it->second.assign(
                    array.extents.size(),
                    SubscriptRange{
                        std::numeric_limits<std::int64_t>::max(),
                        std::numeric_limits<std::int64_t>::min()});
            }
            SubscriptRange &range = it->second[d];
            range.min = std::min(range.min, sub);
            range.max = std::max(range.max, sub);
        }
        index += shifted * array.strides[d];
    }
    return index;
}

double
Interpreter::readRef(const ArrayRef &ref)
{
    const ArrayStorage &array = storage(ref.array());
    std::int64_t index = flatIndex(array, ref);
    ++loads_;
    if (callback_)
        callback_(array.base + index, MemAccessKind::Read);
    return array.data[static_cast<std::size_t>(index)];
}

void
Interpreter::writeRef(const ArrayRef &ref, double value)
{
    ArrayStorage &array = storage(ref.array());
    std::int64_t index = flatIndex(array, ref);
    ++stores_;
    if (callback_)
        callback_(array.base + index, MemAccessKind::Write);
    array.data[static_cast<std::size_t>(index)] = value;
}

double
Interpreter::evalExpr(const Expr &expr)
{
    switch (expr.kind()) {
      case Expr::Kind::Constant:
        return expr.constantValue();
      case Expr::Kind::Scalar: {
        auto it = scalars_.find(expr.scalarName());
        return it == scalars_.end() ? 0.0 : it->second;
      }
      case Expr::Kind::ArrayRead:
        return readRef(expr.ref());
      case Expr::Kind::Binary: {
        double lhs = evalExpr(*expr.lhs());
        double rhs = evalExpr(*expr.rhs());
        switch (expr.op()) {
          case BinOp::Add:
            return lhs + rhs;
          case BinOp::Sub:
            return lhs - rhs;
          case BinOp::Mul:
            return lhs * rhs;
          case BinOp::Div:
            return lhs / rhs;
        }
        panic("unknown binary operator");
      }
    }
    panic("unknown expression kind");
}

void
Interpreter::execStmt(const Stmt &stmt)
{
    if (stmt.isPrefetch()) {
        // A prefetch of an out-of-range address is dropped silently,
        // like real non-faulting prefetch instructions.
        const ArrayStorage &array = storage(stmt.prefetchRef().array());
        const ArrayRef &ref = stmt.prefetchRef();
        std::int64_t index = 0;
        bool in_range = true;
        for (std::size_t d = 0; d < ref.dims() && in_range; ++d) {
            std::int64_t sub = ref.offset()[d];
            for (std::size_t k = 0; k < ref.row(d).size(); ++k) {
                if (ref.row(d)[k] != 0)
                    sub += ref.row(d)[k] * iv_values_[k];
            }
            std::int64_t shifted = sub - 1 + ArrayLayout::haloElems;
            if (shifted < 0 ||
                shifted >=
                    array.extents[d] + 2 * ArrayLayout::haloElems) {
                in_range = false;
            } else {
                index += shifted * array.strides[d];
            }
        }
        ++prefetches_;
        if (in_range && callback_)
            callback_(array.base + index, MemAccessKind::Prefetch);
        return;
    }
    double value = evalExpr(*stmt.rhs());
    if (stmt.lhsIsArray())
        writeRef(stmt.lhsRef(), value);
    else
        scalars_[stmt.lhsScalar()] = value;
}

void
Interpreter::execLoops(const LoopNest &nest, std::size_t level)
{
    if (level == nest.depth()) {
        ++iterations_;
        for (const Stmt &stmt : nest.body())
            execStmt(stmt);
        return;
    }
    const Loop &loop = nest.loop(level);
    if (loop.step < 1) {
        fatal("loop '", loop.iv, "' has step ", loop.step,
              "; interpretation would not terminate");
    }
    std::int64_t lo = loop.lower.evaluate(params_);
    std::int64_t hi = loop.upper.evaluate(params_);
    bool innermost = (level + 1 == nest.depth());
    // On entering the innermost loop, run the preheader once (per
    // surrounding outer iteration) with the innermost induction
    // variable at its lower bound.
    if (innermost && !nest.preheader().empty() && lo <= hi) {
        iv_values_[level] = lo;
        for (const Stmt &stmt : nest.preheader()) {
            execStmt(stmt);
            ++header_stmts_;
        }
    }
    std::int64_t last = lo;
    for (std::int64_t v = lo; v <= hi; v += loop.step) {
        iv_values_[level] = v;
        last = v;
        execLoops(nest, level + 1);
    }
    // The postheader runs after the innermost loop completed at least
    // one iteration, with its induction variable at the last value.
    if (innermost && !nest.postheader().empty() && lo <= hi) {
        iv_values_[level] = last;
        for (const Stmt &stmt : nest.postheader()) {
            execStmt(stmt);
            ++header_stmts_;
        }
    }
}

void
Interpreter::runNest(const LoopNest &nest)
{
    iv_values_.assign(nest.depth(), 0);
    if (nest.depth() == 0) {
        for (const Stmt &stmt : nest.preheader())
            execStmt(stmt);
        for (const Stmt &stmt : nest.body())
            execStmt(stmt);
        for (const Stmt &stmt : nest.postheader())
            execStmt(stmt);
        return;
    }
    execLoops(nest, 0);
}

void
Interpreter::run()
{
    for (const LoopNest &nest : program_.nests())
        runNest(nest);
}

const std::vector<double> &
Interpreter::arrayData(const std::string &name) const
{
    return storage(name).data;
}

double
Interpreter::element(const std::string &name,
                     const std::vector<std::int64_t> &subscripts) const
{
    const ArrayStorage &array = storage(name);
    UJAM_ASSERT(subscripts.size() == array.extents.size(),
                "rank mismatch reading '", name, "'");
    std::int64_t index = 0;
    for (std::size_t d = 0; d < subscripts.size(); ++d)
        index += (subscripts[d] - 1 + ArrayLayout::haloElems) *
                 array.strides[d];
    return array.data[static_cast<std::size_t>(index)];
}

double
Interpreter::scalar(const std::string &name) const
{
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
}

std::string
Interpreter::compareArrays(const Interpreter &other, double rel_tol) const
{
    if (arrays_.size() != other.arrays_.size())
        return "array count mismatch";
    for (std::size_t a = 0; a < arrays_.size(); ++a) {
        const ArrayStorage &mine = arrays_[a];
        const ArrayStorage &theirs = other.arrays_[a];
        if (mine.name != theirs.name ||
            mine.data.size() != theirs.data.size()) {
            return concat("array shape mismatch at '", mine.name, "'");
        }
        for (std::size_t i = 0; i < mine.data.size(); ++i) {
            double x = mine.data[i];
            double y = theirs.data[i];
            double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
            if (std::fabs(x - y) > rel_tol * scale) {
                return concat("array '", mine.name, "' differs at flat ",
                              "index ", i, ": ", x, " vs ", y);
            }
        }
    }
    return "";
}

} // namespace ujam
