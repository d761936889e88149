/**
 * @file
 * Host-clock measurement primitives for the benchmark runner: a
 * steady-clock stopwatch, in-memory spans around the runner's calls
 * into library layers, and the flat JSON report the runner prints for
 * run.py.
 *
 * Spans are recorded only in the traced run and stay in memory until
 * the report is written at exit. They measure the host clock and are
 * never mixed into the simulator's own (sim-clock) tracer.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Milliseconds elapsed since @p start. */
double msSince(Clock::time_point start);

/** One closed span: [start_ns, end_ns) relative to the recorder's
 *  origin, with the index of the enclosing span (-1 at top level). */
struct Span
{
    std::string name; //!< "<layer>.<step>", e.g. "vpps.generate"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t op = -1; //!< op (batch, request, setup) index, or -1
};

/**
 * Records nested spans on one thread. A disabled recorder ignores
 * every call, so the untraced code path is the same code with no
 * clock reads added.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one. @return its id,
     *  or -1 when disabled. */
    int begin(const char* name, std::int64_t op = -1);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder& rec, const char* name, std::int64_t op = -1)
        : rec_(rec), id_(rec.begin(name, op))
    {
    }

    ~ScopedSpan() { rec_.end(id_); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanRecorder& rec_;
    int id_;
};

/** @return @p v as 16 lower-case hex digits. */
std::string hex64(std::uint64_t v);

/** Peak resident set of this process so far, MB. */
double peakRssMb();

/**
 * The runner's flat JSON report: scalar fields, numeric arrays, and
 * the span list. Doubles are printed with 17 significant digits so
 * run.py sees exactly the values the runner measured.
 */
class Report
{
  public:
    void num(const std::string& key, double v);
    void str(const std::string& key, const std::string& v);
    void flag(const std::string& key, bool v);
    void nums(const std::string& key, const std::vector<double>& v);
    void spans(const std::string& key, const std::vector<Span>& v);

    /** The whole report as one JSON object. */
    std::string json() const;

  private:
    void keyOf(const std::string& key);

    std::string body_;
};

} // namespace perfbench
