/**
 * @file
 * Status-message and error-handling helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, invalid arguments) and exits cleanly; panic() is for
 * internal invariant violations and aborts. inform()/warn() report
 * status without stopping the run.
 */
#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace common {

namespace detail {

/** Format a list of stream-insertable arguments into one string. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

[[noreturn]] void fatalImpl(const std::string& msg);
[[noreturn]] void panicImpl(const std::string& msg);
void informImpl(const std::string& msg);
void warnImpl(const std::string& msg);

} // namespace detail

/**
 * Abort the run because of a user-level error (bad config or
 * arguments). Exits with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args&&... args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Abort the run because an internal invariant was violated (a bug in
 * this library, not a user error). Calls std::abort().
 */
template <typename... Args>
[[noreturn]] void
panic(Args&&... args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print an informational status message. */
template <typename... Args>
void
inform(Args&&... args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

/** Print a warning about questionable but non-fatal behaviour. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Enable/disable inform() output (benchmarks silence it). */
void setVerbose(bool verbose);

} // namespace common
