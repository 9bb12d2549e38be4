#include "analysis/dataflow.hh"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

#include "ir/validate.hh"
#include "support/diagnostics.hh"

namespace ujam
{

namespace
{

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/** Floor modulus: result in [0, m) for m > 0. */
std::int64_t
floorMod(std::int64_t v, std::int64_t m)
{
    std::int64_t r = v % m;
    return r < 0 ? r + m : r;
}

/** gcd that treats 0 as the identity and never overflows. */
std::int64_t
safeGcd(std::int64_t a, std::int64_t b)
{
    std::uint64_t ua = a == kMin ? std::uint64_t(1) << 63
                                 : std::uint64_t(a < 0 ? -a : a);
    std::uint64_t ub = b == kMin ? std::uint64_t(1) << 63
                                 : std::uint64_t(b < 0 ? -b : b);
    std::uint64_t g = std::gcd(ua, ub);
    return g > std::uint64_t(kMax) ? kMax : std::int64_t(g);
}

} // namespace

std::int64_t
satAdd(std::int64_t a, std::int64_t b)
{
    std::int64_t r = 0;
    if (!__builtin_add_overflow(a, b, &r))
        return r;
    return (a > 0) ? kMax : kMin;
}

std::int64_t
satMul(std::int64_t a, std::int64_t b)
{
    std::int64_t r = 0;
    if (!__builtin_mul_overflow(a, b, &r))
        return r;
    return ((a > 0) == (b > 0)) ? kMax : kMin;
}

// ---------------------------------------------------------------- Interval

bool
Interval::contains(std::int64_t v) const
{
    if (isEmpty())
        return false;
    if (hasLo && v < lo)
        return false;
    if (hasHi && v > hi)
        return false;
    return true;
}

Interval
Interval::hull(const Interval &a, const Interval &b)
{
    if (a.isEmpty())
        return b;
    if (b.isEmpty())
        return a;
    Interval r;
    r.hasLo = a.hasLo && b.hasLo;
    r.hasHi = a.hasHi && b.hasHi;
    if (r.hasLo)
        r.lo = std::min(a.lo, b.lo);
    if (r.hasHi)
        r.hi = std::max(a.hi, b.hi);
    return r;
}

bool
Interval::disjoint(const Interval &a, const Interval &b)
{
    if (a.isEmpty() || b.isEmpty())
        return true;
    if (a.hasHi && b.hasLo && a.hi < b.lo)
        return true;
    if (b.hasHi && a.hasLo && b.hi < a.lo)
        return true;
    return false;
}

Interval
Interval::plus(const Interval &other) const
{
    if (isEmpty() || other.isEmpty())
        return empty();
    Interval r;
    r.hasLo = hasLo && other.hasLo;
    r.hasHi = hasHi && other.hasHi;
    if (r.hasLo)
        r.lo = satAdd(lo, other.lo);
    if (r.hasHi)
        r.hi = satAdd(hi, other.hi);
    return r;
}

Interval
Interval::shifted(std::int64_t delta) const
{
    return plus(point(delta));
}

Interval
Interval::scaled(std::int64_t c) const
{
    if (isEmpty())
        return empty();
    if (c == 0)
        return point(0);
    Interval r;
    if (c > 0) {
        r.hasLo = hasLo;
        r.hasHi = hasHi;
        if (hasLo)
            r.lo = satMul(lo, c);
        if (hasHi)
            r.hi = satMul(hi, c);
    } else {
        r.hasLo = hasHi;
        r.hasHi = hasLo;
        if (hasHi)
            r.lo = satMul(hi, c);
        if (hasLo)
            r.hi = satMul(lo, c);
    }
    return r;
}

std::string
Interval::toString() const
{
    if (isEmpty())
        return "empty";
    if (!hasLo && !hasHi)
        return "top";
    std::ostringstream os;
    os << (hasLo ? "[" : "(");
    if (hasLo)
        os << lo;
    else
        os << "-inf";
    os << ", ";
    if (hasHi)
        os << hi;
    else
        os << "+inf";
    os << (hasHi ? "]" : ")");
    return os.str();
}

// -------------------------------------------------------------- Congruence

Congruence
Congruence::stride(std::int64_t modulus, std::int64_t residue)
{
    if (modulus < 0)
        modulus = -modulus;
    if (modulus == 1)
        return top();
    if (modulus == 0)
        return constant(residue);
    return {modulus, floorMod(residue, modulus)};
}

bool
Congruence::admits(std::int64_t v) const
{
    if (isTop())
        return true;
    if (isConstant())
        return v == residue;
    return floorMod(v, modulus) == residue;
}

Congruence
Congruence::join(const Congruence &a, const Congruence &b)
{
    if (a.isTop() || b.isTop())
        return top();
    std::int64_t diff = satAdd(a.residue, -b.residue);
    std::int64_t m = safeGcd(safeGcd(a.modulus, b.modulus), diff);
    if (m == 0)
        return constant(a.residue);
    return stride(m, a.residue);
}

Congruence
Congruence::plus(const Congruence &other) const
{
    if (isTop() || other.isTop())
        return top();
    std::int64_t r = 0;
    if (__builtin_add_overflow(residue, other.residue, &r))
        return top();
    std::int64_t m = safeGcd(modulus, other.modulus);
    return stride(m, r);
}

Congruence
Congruence::scaled(std::int64_t c) const
{
    if (c == 0)
        return constant(0);
    if (isTop())
        return top();
    std::int64_t r = 0;
    std::int64_t m = 0;
    if (__builtin_mul_overflow(residue, c, &r) ||
        __builtin_mul_overflow(modulus, c, &m)) {
        return top();
    }
    return stride(m, r);
}

std::string
Congruence::toString() const
{
    if (isTop())
        return "top";
    std::ostringstream os;
    if (isConstant()) {
        os << "= " << residue;
    } else {
        os << "== " << residue << " (mod " << modulus << ")";
    }
    return os.str();
}

// ----------------------------------------------------------- boundInterval

Interval
boundInterval(const Bound &bound, const ParamBindings &params)
{
    Interval result = Interval::point(bound.constantTerm());
    for (const auto &[name, coeff] : bound.paramTerms()) {
        auto it = params.find(name);
        if (it == params.end())
            return Interval::top(); // widening: unknown parameter
        result = result.shifted(satMul(coeff, it->second));
    }
    if (const BoundAlignedPart *part = bound.alignedPart()) {
        Interval lo = boundInterval(part->lower, params);
        Interval hi = boundInterval(part->upper, params);
        Interval aligned;
        if (lo.isPoint() && hi.isPoint()) {
            // Exact: lo + floor(max(hi - lo + 1, 0) / f) * f - 1.
            std::int64_t trip = hi.lo - lo.lo + 1;
            if (trip < 0)
                trip = 0;
            aligned = Interval::point(
                lo.lo + (trip / part->factor) * part->factor - 1);
        } else {
            // The aligned value never passes the upper bound and
            // never precedes lower - 1 (the zero-trip rendering).
            aligned.hasLo = lo.hasLo;
            aligned.hasHi = hi.hasHi;
            if (aligned.hasLo)
                aligned.lo = satAdd(lo.lo, -1);
            if (aligned.hasHi)
                aligned.hi = hi.hi;
        }
        result = result.plus(aligned);
    }
    return result;
}

// ------------------------------------------------------------ NestDataflow

NestDataflow::NestDataflow(const Program &program, const LoopNest &nest,
                           const ParamBindings &params)
    : program_(program), nest_(nest), params_(params)
{
    const std::size_t depth = nest.depth();
    loops_.resize(depth);
    for (std::size_t k = 0; k < depth; ++k) {
        const Loop &loop = nest.loop(k);
        LoopDataflow &lf = loops_[k];
        lf.lower = boundInterval(loop.lower, params_);
        lf.upper = boundInterval(loop.upper, params_);
        const std::int64_t s = std::max<std::int64_t>(1, loop.step);

        // Trip count: never negative; each side needs the opposing
        // bound ends.
        lf.trip.hasLo = true;
        lf.trip.lo = 0;
        if (lf.lower.hasHi && lf.upper.hasLo) {
            std::int64_t span = satAdd(lf.upper.lo, -lf.lower.hi);
            if (span >= 0)
                lf.trip.lo = span / s + 1;
        }
        if (lf.lower.hasLo && lf.upper.hasHi) {
            lf.trip.hasHi = true;
            std::int64_t span = satAdd(lf.upper.hi, -lf.lower.lo);
            lf.trip.hi = span < 0 ? 0 : span / s + 1;
        }

        // Induction values over executed iterations.
        if (lf.trip.hasHi && lf.trip.hi <= 0) {
            lf.values = Interval::empty();
        } else {
            lf.values.hasLo = lf.lower.hasLo;
            lf.values.lo = lf.lower.lo;
            lf.values.hasHi = lf.upper.hasHi;
            lf.values.hi = lf.upper.hi;
        }

        // Stride lattice: iv == lower (mod step) when the lower bound
        // is exactly known.
        lf.cong = lf.lower.isPoint() ? Congruence::stride(s, lf.lower.lo)
                                     : Congruence::top();
    }

    for (const Access &access : nest.accesses())
        accesses_.push_back(analyzeRef(access.ref, access.isWrite));
    auto header = [&](const std::vector<Stmt> &stmts) {
        for (const Stmt &stmt : stmts) {
            stmt.forEachAccess(
                [&](const ArrayRef &ref, bool is_write) {
                    headers_.push_back(analyzeRef(ref, is_write));
                });
        }
    };
    header(nest.preheader());
    header(nest.postheader());
}

AccessDataflow
NestDataflow::analyzeRef(const ArrayRef &ref, bool is_write) const
{
    AccessDataflow out;
    out.array = ref.array();
    out.isWrite = is_write;
    const std::size_t depth = loops_.size();

    for (std::size_t d = 0; d < ref.dims(); ++d) {
        AbstractValue sub = AbstractValue::point(ref.offset()[d]);
        const IntVector &row = ref.row(d);
        for (std::size_t k = 0; k < row.size() && k < depth; ++k) {
            if (row[k] == 0)
                continue;
            AbstractValue iv{loops_[k].values, loops_[k].cong};
            sub = sub.plus(iv.scaled(row[k]));
        }
        out.dims.push_back({sub.range, sub.cong});
    }

    // Extent facts; any inexact extent forfeits the layout facts.
    std::vector<std::int64_t> extents;
    bool extents_known = program_.hasArray(ref.array());
    if (extents_known) {
        for (const Bound &extent : program_.array(ref.array()).extents) {
            Interval e = boundInterval(extent, params_);
            if (!e.isPoint()) {
                extents_known = false;
                break;
            }
            extents.push_back(e.lo);
        }
        extents_known =
            extents_known && extents.size() == out.dims.size();
    }

    out.inBounds = extents_known;
    out.inHalo = extents_known;
    if (extents_known) {
        for (std::size_t d = 0; d < out.dims.size(); ++d) {
            const Interval &r = out.dims[d].range;
            if (r.isEmpty())
                continue; // dead code accesses nothing
            if (!r.bounded()) {
                out.inBounds = false;
                out.inHalo = false;
                break;
            }
            if (r.lo < 1 || r.hi > extents[d])
                out.inBounds = false;
            if (r.lo < 1 - ArrayLayout::haloElems ||
                r.hi > extents[d] + ArrayLayout::haloElems) {
                out.inHalo = false;
            }
        }

        // Flat column-major halo-padded index and innermost stride.
        AbstractValue flat = AbstractValue::point(0);
        std::int64_t stride = 1;
        std::int64_t inner = 0;
        for (std::size_t d = 0; d < out.dims.size(); ++d) {
            AbstractValue sub{out.dims[d].range, out.dims[d].cong};
            flat = flat.plus(
                sub.shifted(ArrayLayout::haloElems - 1).scaled(stride));
            if (depth > 0) {
                const IntVector &row = ref.row(d);
                std::int64_t coeff =
                    depth - 1 < row.size() ? row[depth - 1] : 0;
                inner = satAdd(inner, satMul(coeff, stride));
            }
            stride =
                satMul(stride, extents[d] + 2 * ArrayLayout::haloElems);
        }
        out.flat = flat.range;
        out.flatCong = flat.cong;
        out.innerStride = inner;
    }
    return out;
}

Interval
NestDataflow::unrolledDimRange(const ArrayRef &ref, std::size_t d,
                               const IntVector &unroll) const
{
    UJAM_ASSERT(d < ref.dims(), "dimension out of range");
    const std::size_t depth = loops_.size();
    Interval sub = Interval::point(ref.offset()[d]);
    const IntVector &row = ref.row(d);
    for (std::size_t k = 0; k < row.size() && k < depth; ++k) {
        if (row[k] == 0)
            continue;
        Interval iv = loops_[k].values;
        std::int64_t u = k < unroll.size() ? unroll[k] : 0;
        if (u > 0) {
            // Copy j of loop k runs at iv + j*step, j in [0, u].
            std::int64_t s = std::max<std::int64_t>(1, nest_.loop(k).step);
            iv = iv.plus(Interval::closed(0, satMul(s, u)));
        }
        sub = sub.plus(iv.scaled(row[k]));
    }
    return sub;
}

bool
NestDataflow::provablyEmpty() const
{
    for (const LoopDataflow &lf : loops_) {
        if (lf.provablyEmpty())
            return true;
    }
    return false;
}

bool
NestDataflow::allInHalo() const
{
    for (const AccessDataflow &a : accesses_) {
        if (!a.inHalo)
            return false;
    }
    for (const AccessDataflow &a : headers_) {
        if (!a.inHalo)
            return false;
    }
    return true;
}

} // namespace ujam
