#include "spans.hpp"

#include <sys/resource.h>

#include <cstdio>

#include "obs/json.hpp"

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now())
{
}

int
SpanRecorder::begin(const char* name, std::int64_t op)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - origin_)
                     .count();
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (!enabled_ || id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count();
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Report::keyOf(const std::string& key)
{
    if (!body_.empty())
        body_ += ',';
    obs::appendJsonString(body_, key);
    body_ += ':';
}

void
Report::num(const std::string& key, double v)
{
    keyOf(key);
    obs::appendJsonDouble(body_, v);
}

void
Report::str(const std::string& key, const std::string& v)
{
    keyOf(key);
    obs::appendJsonString(body_, v);
}

void
Report::flag(const std::string& key, bool v)
{
    keyOf(key);
    body_ += v ? "true" : "false";
}

void
Report::nums(const std::string& key, const std::vector<double>& v)
{
    keyOf(key);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0)
            body_ += ',';
        obs::appendJsonDouble(body_, v[i]);
    }
    body_ += ']';
}

void
Report::spans(const std::string& key, const std::vector<Span>& v)
{
    keyOf(key);
    body_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        const Span& s = v[i];
        if (i > 0)
            body_ += ',';
        body_ += '[';
        obs::appendJsonString(body_, s.name);
        body_ += ',' + std::to_string(s.start_ns) + ',' +
                 std::to_string(s.end_ns) + ',' +
                 std::to_string(s.parent) + ',' + std::to_string(s.op) +
                 ']';
    }
    body_ += ']';
}

std::string
Report::json() const
{
    return '{' + body_ + '}';
}

} // namespace perfbench
