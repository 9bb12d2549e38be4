#include "support/string_utils.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace ujam
{

std::string
trim(const std::string &s)
{
    std::size_t begin = 0;
    std::size_t end = s.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
        ++begin;
    while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
        --end;
    return s.substr(begin, end - begin);
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            fields.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return fields;
}

std::string
toLower(const std::string &s)
{
    std::string result = s;
    for (char &c : result)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return result;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string
formatFixed(double value, int places)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", places, value);
    return buffer;
}

std::string
padLeft(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, std::size_t width)
{
    if (s.size() >= width)
        return s;
    return s + std::string(width - s.size(), ' ');
}

bool
parseInt64(const std::string &text, std::int64_t &value)
{
    // strtoll alone would skip leading blanks and take a '+'.
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '-'))
        return false;
    errno = 0;
    char *end = nullptr;
    long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    value = parsed;
    return true;
}

bool
parseUint64(const std::string &text, std::uint64_t &value)
{
    // strtoull would also wrap a '-' after leading blanks to a huge
    // value.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    value = parsed;
    return true;
}

} // namespace ujam
