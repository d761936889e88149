/** @file Trace Event Format (chrome://tracing / Perfetto) export. */
#include "obs/chrome_trace.hpp"

#include <set>

#include "obs/json.hpp"

namespace obs {

namespace {

constexpr int kPid = 1; //!< one simulated process

void
appendCommon(std::string& out, const TraceEvent& e)
{
    out += "\"cat\": ";
    appendJsonString(out, e.cat);
    out += ", \"pid\": " + std::to_string(kPid) +
           ", \"tid\": " + std::to_string(e.lane) + ", \"ts\": ";
    appendJsonDouble(out, e.ts_us);
}

} // namespace

std::string
chromeTraceJson(const Tracer& tracer)
{
    const std::vector<TraceEvent> events = tracer.canonical();

    std::string out;
    out.reserve(events.size() * 128 + 1024);
    out += "{\"traceEvents\": [\n";

    // Lane-name metadata first, so the viewer labels every tid. tid
    // order puts VPP lanes (small indices) above the host lanes.
    std::set<std::int32_t> lanes;
    for (const TraceEvent& e : events)
        lanes.insert(e.lane);
    bool first = true;
    for (const std::int32_t lane : lanes) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": " +
               std::to_string(kPid) +
               ", \"tid\": " + std::to_string(lane) +
               ", \"args\": {\"name\": ";
        appendJsonString(out, laneName(lane));
        out += "}}";
    }

    for (const TraceEvent& e : events) {
        if (!first)
            out += ",\n";
        first = false;
        out += "{\"name\": ";
        appendJsonString(out, e.name);
        out += ", ";
        appendCommon(out, e);
        switch (e.kind) {
          case EventKind::Complete:
            out += ", \"ph\": \"X\", \"dur\": ";
            appendJsonDouble(out, e.dur_us);
            out += ", \"args\": {\"ctx\": " +
                   std::to_string(e.ctx) + ", \"a0\": ";
            appendJsonDouble(out, e.arg0);
            out += ", \"a1\": ";
            appendJsonDouble(out, e.arg1);
            out += "}}";
            break;
          case EventKind::Instant:
            out += ", \"ph\": \"i\", \"s\": \"t\", \"args\": "
                   "{\"ctx\": " +
                   std::to_string(e.ctx) + ", \"a0\": ";
            appendJsonDouble(out, e.arg0);
            out += ", \"a1\": ";
            appendJsonDouble(out, e.arg1);
            out += "}}";
            break;
          case EventKind::Counter:
            // Counter samples carry the absolute running total in
            // arg0; the viewer plots it as a stepped series.
            out += ", \"ph\": \"C\", \"args\": {";
            appendJsonString(out, e.name);
            out += ": ";
            appendJsonDouble(out, e.arg0);
            out += "}}";
            break;
        }
    }

    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

common::Status
writeChromeTrace(const std::string& path, const Tracer& tracer)
{
    // Temp-write + rename: a crash mid-export never leaves a
    // truncated trace that ui.perfetto.dev refuses to load.
    return writeTextFileAtomic(path, chromeTraceJson(tracer));
}

} // namespace obs
