/**
 * @file
 * Small string helpers shared across the library.
 */

#ifndef UJAM_SUPPORT_STRING_UTILS_HH
#define UJAM_SUPPORT_STRING_UTILS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace ujam
{

/** @return Copy of s with leading/trailing whitespace removed. */
std::string trim(const std::string &s);

/** @return s split on sep, with empty fields preserved. */
std::vector<std::string> split(const std::string &s, char sep);

/** @return Lower-cased ASCII copy of s. */
std::string toLower(const std::string &s);

/** @return True iff s begins with prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** @return value formatted with fixed decimal places. */
std::string formatFixed(double value, int places);

/** @return s left-padded with spaces to at least width characters. */
std::string padLeft(const std::string &s, std::size_t width);

/** @return s right-padded with spaces to at least width characters. */
std::string padRight(const std::string &s, std::size_t width);

/**
 * Parse all of text as a decimal integer: an optional '-', then
 * digits, then nothing else.
 *
 * @return False (value untouched) on any other byte or on overflow.
 */
bool parseInt64(const std::string &text, std::int64_t &value);

/** Like parseInt64 for an unsigned integer; no sign is accepted. */
bool parseUint64(const std::string &text, std::uint64_t &value);

/**
 * Parse all of text as a non-negative decimal integer that fits T:
 * the strict reader for command-line counts, sizes and durations.
 */
template <typename T>
bool
parseCount(const std::string &text, T &value)
{
    std::uint64_t parsed = 0;
    if (!parseUint64(text, parsed) ||
        parsed > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
        return false;
    value = static_cast<T>(parsed);
    return true;
}

} // namespace ujam

#endif // UJAM_SUPPORT_STRING_UTILS_HH
