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
                           next_base, {}, {}};
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

Interpreter::ArrayImage
Interpreter::arrayImage() const
{
    ArrayImage image;
    for (const ArrayStorage &array : arrays_)
        image.insert(image.end(), array.data.begin(), array.data.end());
    return image;
}

void
Interpreter::loadArrayImage(const ArrayImage &image)
{
    std::size_t total = 0;
    for (const ArrayStorage &array : arrays_)
        total += array.data.size();
    UJAM_ASSERT(image.size() == total, "array image of another layout");
    const double *next = image.data();
    for (ArrayStorage &array : arrays_) {
        std::copy_n(next, array.data.size(), array.data.begin());
        next += array.data.size();
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

std::size_t
Interpreter::scalarSlot(const std::string &name)
{
    auto [it, fresh] = scalar_slots_.try_emplace(name, scalars_.size());
    if (fresh)
        scalars_.push_back(0.0);
    return it->second;
}

std::size_t
Interpreter::lowerRef(Lowered &lowered, const ArrayRef &ref)
{
    Ref bound{&ref, nullptr, false, lowered.dims.size(),
              lowered.dims.size()};
    auto it = array_index_.find(ref.array());
    if (it != array_index_.end()) {
        bound.array = &arrays_[it->second];
        bound.bound = ref.dims() == bound.array->extents.size();
    }
    if (bound.bound) {
        for (std::size_t d = 0; d < ref.dims(); ++d) {
            Dim dim{ref.offset()[d] - 1 + ArrayLayout::haloElems,
                    bound.array->extents[d] + 2 * ArrayLayout::haloElems,
                    bound.array->strides[d], lowered.terms.size(), 0};
            const IntVector &row = ref.row(d);
            for (std::size_t k = 0; k < row.size(); ++k) {
                if (row[k] != 0)
                    lowered.terms.push_back({k, row[k]});
            }
            dim.endTerm = lowered.terms.size();
            lowered.dims.push_back(dim);
        }
        bound.endDim = lowered.dims.size();
    }
    lowered.refs.push_back(bound);
    return lowered.refs.size() - 1;
}

std::size_t
Interpreter::lowerExpr(Lowered &lowered, const Expr &expr)
{
    switch (expr.kind()) {
      case Expr::Kind::Constant:
        lowered.ops.push_back(
            {Op::Code::Constant, 0, expr.constantValue()});
        return 1;
      case Expr::Kind::Scalar:
        lowered.ops.push_back(
            {Op::Code::Scalar, scalarSlot(expr.scalarName()), 0.0});
        return 1;
      case Expr::Kind::ArrayRead:
        lowered.ops.push_back(
            {Op::Code::Load, lowerRef(lowered, expr.ref()), 0.0});
        return 1;
      case Expr::Kind::Binary: {
        // Postfix order: the left operand is evaluated (and loads)
        // first and ends up below the right one on the stack.
        std::size_t lhs = lowerExpr(lowered, *expr.lhs());
        std::size_t rhs = lowerExpr(lowered, *expr.rhs());
        Op::Code code = Op::Code::Add;
        switch (expr.op()) {
          case BinOp::Add:
            code = Op::Code::Add;
            break;
          case BinOp::Sub:
            code = Op::Code::Sub;
            break;
          case BinOp::Mul:
            code = Op::Code::Mul;
            break;
          case BinOp::Div:
            code = Op::Code::Div;
            break;
        }
        lowered.ops.push_back({code, 0, 0.0});
        return std::max(lhs, rhs + 1);
      }
    }
    panic("unknown expression kind");
}

Interpreter::LoweredStmt
Interpreter::lowerStmt(Lowered &lowered, const Stmt &stmt)
{
    if (stmt.isPrefetch()) {
        return {LoweredStmt::Kind::Prefetch, 0, 0,
                lowerRef(lowered, stmt.prefetchRef())};
    }
    LoweredStmt lowered_stmt{LoweredStmt::Kind::StoreArray,
                             lowered.ops.size(), 0, 0};
    std::size_t depth = lowerExpr(lowered, *stmt.rhs());
    lowered_stmt.endOp = lowered.ops.size();
    if (lowered.stack.size() < depth)
        lowered.stack.resize(depth);
    if (stmt.lhsIsArray()) {
        lowered_stmt.target = lowerRef(lowered, stmt.lhsRef());
    } else {
        lowered_stmt.kind = LoweredStmt::Kind::StoreScalar;
        lowered_stmt.target = scalarSlot(stmt.lhsScalar());
    }
    return lowered_stmt;
}

Interpreter::Lowered
Interpreter::lower(const LoopNest &nest)
{
    Lowered lowered;
    for (const Loop &loop : nest.loops())
        lowered.loops.push_back({&loop});
    for (const Stmt &stmt : nest.preheader())
        lowered.preheader.push_back(lowerStmt(lowered, stmt));
    for (const Stmt &stmt : nest.body())
        lowered.body.push_back(lowerStmt(lowered, stmt));
    for (const Stmt &stmt : nest.postheader())
        lowered.postheader.push_back(lowerStmt(lowered, stmt));

    // Every induction variable a term reads, the nest's own and any
    // a malformed reference names past them, starts at 0.
    std::size_t levels = nest.depth();
    for (const Term &term : lowered.terms)
        levels = std::max(levels, term.level + 1);
    ivs_.assign(levels, 0);
    return lowered;
}

void
Interpreter::enterLoop(LoweredLoop &entry) const
{
    const Loop &loop = *entry.source;
    if (loop.step < 1) {
        fatal("loop '", loop.iv, "' has step ", loop.step,
              "; interpretation would not terminate");
    }
    entry.lo = loop.lower.evaluate(params_);
    entry.hi = loop.upper.evaluate(params_);
    entry.entered = true;
}

void
Interpreter::failAccess(const Ref &bound) const
{
    const ArrayRef &ref = *bound.source;
    if (!bound.array)
        fatal("reference to undeclared array '", ref.array(), "'");
    const ArrayStorage &array = *bound.array;
    UJAM_ASSERT(ref.dims() == array.extents.size(),
                "rank mismatch accessing '", array.name, "'");
    panic("reference to '", array.name, "' left unbound");
}

void
Interpreter::outsideHalo(const Ref &ref, std::size_t dim,
                         std::int64_t shifted) const
{
    const ArrayStorage &array = *ref.array;
    fatal("subscript ", shifted + 1 - ArrayLayout::haloElems,
          " of dimension ", dim + 1, " of array '", array.name,
          "' is outside extent ", array.extents[dim], " plus halo");
}

void
Interpreter::observe(const Ref &ref, std::size_t dim, std::int64_t shifted)
{
    std::vector<SubscriptRange> &ranges = ref.array->observed;
    if (ranges.empty()) {
        // Inverted sentinels; every dimension is visited by the very
        // access that creates them.
        ranges.assign(ref.array->extents.size(),
                      SubscriptRange{std::numeric_limits<std::int64_t>::max(),
                                     std::numeric_limits<std::int64_t>::min()});
    }
    std::int64_t sub = shifted + 1 - ArrayLayout::haloElems;
    ranges[dim].min = std::min(ranges[dim].min, sub);
    ranges[dim].max = std::max(ranges[dim].max, sub);
}

void
Interpreter::runNest(const LoopNest &nest)
{
    if (callback_) {
        runNest(nest, callback_);
    } else {
        runNest(nest, [](std::int64_t, MemAccessKind) {});
    }
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
    auto it = scalar_slots_.find(name);
    return it == scalar_slots_.end() ? 0.0 : scalars_[it->second];
}

std::map<std::string, std::vector<Interpreter::SubscriptRange>>
Interpreter::observedSubscriptRanges() const
{
    std::map<std::string, std::vector<SubscriptRange>> ranges;
    for (const ArrayStorage &array : arrays_) {
        if (!array.observed.empty())
            ranges.emplace(array.name, array.observed);
    }
    return ranges;
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
            // An infinity or a NaN would make either side of the
            // tolerance test NaN or infinite, and so pass against
            // anything: a non-finite value matches only itself.
            bool differ;
            if (std::isfinite(x) && std::isfinite(y)) {
                double scale =
                    std::max({std::fabs(x), std::fabs(y), 1.0});
                differ = std::fabs(x - y) > rel_tol * scale;
            } else {
                differ = x != y && !(std::isnan(x) && std::isnan(y));
            }
            if (differ) {
                return concat("array '", mine.name, "' differs at flat ",
                              "index ", i, ": ", x, " vs ", y);
            }
        }
    }
    return "";
}

} // namespace ujam
