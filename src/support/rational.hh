/**
 * @file
 * Exact rational arithmetic on 64-bit integers.
 *
 * The reuse analysis solves small linear systems exactly; floating
 * point would silently mis-classify merge points whose components are
 * non-integral. Values are kept normalized (gcd 1, positive
 * denominator) and every operation checks for overflow.
 */

#ifndef UJAM_SUPPORT_RATIONAL_HH
#define UJAM_SUPPORT_RATIONAL_HH

#include <cstdint>
#include <iosfwd>
#include <string>

namespace ujam
{

/**
 * An exact rational number num/den with den > 0 and gcd(num, den) == 1.
 *
 * All arithmetic is overflow-checked; an overflow panics, since the
 * analyses only ever manipulate small subscript coefficients and an
 * overflow indicates a bug or absurd input rather than a user error.
 */
class Rational
{
  public:
    /** Construct zero. */
    constexpr Rational() : num_(0), den_(1) {}

    /** Construct an integer value. */
    constexpr Rational(std::int64_t value) : num_(value), den_(1) {}

    /**
     * Construct num/den in lowest terms.
     * @param num Numerator.
     * @param den Denominator; must be nonzero.
     */
    Rational(std::int64_t num, std::int64_t den);

    /** @return The normalized numerator. */
    std::int64_t num() const { return num_; }
    /** @return The normalized (positive) denominator. */
    std::int64_t den() const { return den_; }

    /** @return True iff the value is an integer. */
    bool isInteger() const { return den_ == 1; }
    /** @return True iff the value is zero. */
    bool isZero() const { return num_ == 0; }
    /** @return True iff the value is strictly negative. */
    bool isNegative() const { return num_ < 0; }

    /**
     * @return The integer value.
     * @pre isInteger()
     */
    std::int64_t toInteger() const;

    /** @return Largest integer not greater than the value. */
    std::int64_t floor() const;
    /** @return Smallest integer not less than the value. */
    std::int64_t ceil() const;

    Rational operator-() const;
    Rational operator+(const Rational &other) const;
    Rational operator-(const Rational &other) const;
    Rational operator*(const Rational &other) const;
    /** @pre !other.isZero() */
    Rational operator/(const Rational &other) const;

    Rational &operator+=(const Rational &other);
    Rational &operator-=(const Rational &other);
    Rational &operator*=(const Rational &other);
    Rational &operator/=(const Rational &other);

    bool operator==(const Rational &other) const = default;
    bool operator<(const Rational &other) const;
    bool operator<=(const Rational &other) const;
    bool operator>(const Rational &other) const;
    bool operator>=(const Rational &other) const;

    /** @return "num" or "num/den" rendering. */
    std::string toString() const;

  private:
    void normalize();

    std::int64_t num_;
    std::int64_t den_;
};

std::ostream &operator<<(std::ostream &os, const Rational &value);

/** @return gcd(|a|, |b|); gcd(0, 0) == 0. */
std::int64_t gcd64(std::int64_t a, std::int64_t b);

/** Multiply with overflow check. */
std::int64_t checkedMul(std::int64_t a, std::int64_t b);

/** Add with overflow check. */
std::int64_t checkedAdd(std::int64_t a, std::int64_t b);

} // namespace ujam

#endif // UJAM_SUPPORT_RATIONAL_HH
