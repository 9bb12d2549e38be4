/**
 * @file
 * Diagnostic reporting utilities.
 *
 * Follows the gem5 convention: panic() for internal invariant
 * violations (bugs in ujam itself), fatal() for user-level errors
 * (malformed input programs, invalid parameters).
 */

#ifndef UJAM_SUPPORT_DIAGNOSTICS_HH
#define UJAM_SUPPORT_DIAGNOSTICS_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace ujam
{

/** Error thrown by fatal(): a user-correctable condition. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Error thrown by panic(): an internal invariant violation. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace detail
{

inline void
concatTo(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
concatTo(std::ostringstream &os, const T &first, const Rest &...rest)
{
    os << first;
    concatTo(os, rest...);
}

} // namespace detail

/** Concatenate arbitrary streamable arguments into a std::string. */
template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream os;
    detail::concatTo(os, args...);
    return os.str();
}

/**
 * Report an unrecoverable user-level error.
 *
 * @param args Streamable message parts.
 * @throws FatalError always.
 */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    throw FatalError(concat("fatal: ", args...));
}

/**
 * Report an internal invariant violation (a ujam bug).
 *
 * @param args Streamable message parts.
 * @throws PanicError always.
 */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    throw PanicError(concat("panic: ", args...));
}

} // namespace ujam

/**
 * Internal invariant check; active in all build types because the
 * analyses rely on these invariants for correctness.
 */
#define UJAM_ASSERT(cond, ...)                                            \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::ujam::panic("assertion '", #cond, "' failed at ", __FILE__, \
                          ":", __LINE__, ": ", ##__VA_ARGS__);            \
        }                                                                 \
    } while (0)

#endif // UJAM_SUPPORT_DIAGNOSTICS_HH
