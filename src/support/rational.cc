#include "support/rational.hh"

#include <cmath>
#include <ostream>

#include "support/diagnostics.hh"

namespace ujam
{

std::int64_t
gcd64(std::int64_t a, std::int64_t b)
{
    if (a < 0)
        a = -a;
    if (b < 0)
        b = -b;
    while (b != 0) {
        std::int64_t t = a % b;
        a = b;
        b = t;
    }
    return a;
}

std::int64_t
checkedMul(std::int64_t a, std::int64_t b)
{
    std::int64_t result = 0;
    if (__builtin_mul_overflow(a, b, &result))
        panic("integer overflow in ", a, " * ", b);
    return result;
}

std::int64_t
checkedAdd(std::int64_t a, std::int64_t b)
{
    std::int64_t result = 0;
    if (__builtin_add_overflow(a, b, &result))
        panic("integer overflow in ", a, " + ", b);
    return result;
}

Rational::Rational(std::int64_t num, std::int64_t den)
    : num_(num), den_(den)
{
    if (den_ == 0)
        panic("rational with zero denominator");
    normalize();
}

void
Rational::normalize()
{
    if (den_ < 0) {
        num_ = -num_;
        den_ = -den_;
    }
    if (num_ == 0) {
        den_ = 1;
        return;
    }
    std::int64_t g = gcd64(num_, den_);
    num_ /= g;
    den_ /= g;
}

std::int64_t
Rational::toInteger() const
{
    UJAM_ASSERT(isInteger(), "toInteger() on non-integer ", toString());
    return num_;
}

std::int64_t
Rational::floor() const
{
    if (num_ >= 0)
        return num_ / den_;
    return -(((-num_) + den_ - 1) / den_);
}

std::int64_t
Rational::ceil() const
{
    return -(-*this).floor();
}

Rational
Rational::operator-() const
{
    Rational result;
    result.num_ = -num_;
    result.den_ = den_;
    return result;
}

Rational
Rational::operator+(const Rational &other) const
{
    std::int64_t g = gcd64(den_, other.den_);
    std::int64_t scaled_den = checkedMul(den_ / g, other.den_);
    std::int64_t lhs = checkedMul(num_, other.den_ / g);
    std::int64_t rhs = checkedMul(other.num_, den_ / g);
    return Rational(checkedAdd(lhs, rhs), scaled_den);
}

Rational
Rational::operator-(const Rational &other) const
{
    return *this + (-other);
}

Rational
Rational::operator*(const Rational &other) const
{
    // Cross-cancel before multiplying to delay overflow.
    std::int64_t g1 = gcd64(num_, other.den_);
    std::int64_t g2 = gcd64(other.num_, den_);
    return Rational(checkedMul(num_ / g1, other.num_ / g2),
                    checkedMul(den_ / g2, other.den_ / g1));
}

Rational
Rational::operator/(const Rational &other) const
{
    if (other.isZero())
        panic("rational division by zero");
    return *this * Rational(other.den_, other.num_);
}

Rational &
Rational::operator+=(const Rational &other)
{
    *this = *this + other;
    return *this;
}

Rational &
Rational::operator-=(const Rational &other)
{
    *this = *this - other;
    return *this;
}

Rational &
Rational::operator*=(const Rational &other)
{
    *this = *this * other;
    return *this;
}

Rational &
Rational::operator/=(const Rational &other)
{
    *this = *this / other;
    return *this;
}

bool
Rational::operator<(const Rational &other) const
{
    // num/den < n2/d2 <=> num*d2 < n2*den (both dens positive).
    return checkedMul(num_, other.den_) < checkedMul(other.num_, den_);
}

bool
Rational::operator<=(const Rational &other) const
{
    return !(other < *this);
}

bool
Rational::operator>(const Rational &other) const
{
    return other < *this;
}

bool
Rational::operator>=(const Rational &other) const
{
    return !(*this < other);
}

std::string
Rational::toString() const
{
    if (isInteger())
        return std::to_string(num_);
    return concat(num_, "/", den_);
}

std::ostream &
operator<<(std::ostream &os, const Rational &value)
{
    return os << value.toString();
}

} // namespace ujam
