/**
 * @file
 * Shared JSON string/number rendering for every exporter.
 *
 * The Chrome-trace and metrics exporters each grew a private escaper
 * that handled quotes and low control characters but passed bytes >=
 * 0x7f straight through -- so a hostile or merely non-ASCII metric
 * name (an endpoint named from user input, a model tagged with UTF-8)
 * could produce a byte stream that is not valid JSON in any encoding.
 * This is the one escaper both use (json_escape_test round-trips
 * hostile names through it and both exporters).
 */
#pragma once

#include <string>

#include "common/status.hpp"

namespace obs {

/**
 * Append @p s to @p out as a quoted JSON string. The output is pure
 * ASCII and valid JSON for *every* input byte sequence: quotes,
 * backslashes, and the short escapes get their two-character forms;
 * all other control bytes (< 0x20) and every byte >= 0x7f (DEL and
 * anything non-ASCII, treated as Latin-1) are written as \u00XX.
 * Deterministic byte-for-byte, like every exporter output.
 */
void appendJsonString(std::string& out, const std::string& s);

/** @return @p s rendered as a quoted JSON string (see above). */
std::string jsonQuoted(const std::string& s);

/**
 * Append @p v in round-trip-exact "%.17g" form. It is the one double
 * formatter of the trace text format and both JSON exporters: "%.17g"
 * always reconstructs the same double, so canonical-text equality is
 * bit equality of the values, and dumps re-read by tooling get the
 * exact doubles back.
 */
void appendJsonDouble(std::string& out, double v);

/**
 * Write @p content to @p path atomically: the bytes go to
 * `path + ".tmp"`, are flushed and fsynced, and the temp file is
 * renamed over @p path -- the same temp-write + rename discipline the
 * durable checkpoint store uses (durable/manifest.hpp). A reader (or
 * a crash mid-export) therefore sees either the previous complete
 * file or the new complete file, never a truncated JSON document.
 * Used by every exporter that lands on disk: Chrome traces and
 * metrics dumps.
 */
common::Status writeTextFileAtomic(const std::string& path,
                                   const std::string& content);

} // namespace obs
