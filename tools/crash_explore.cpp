/**
 * @file
 * Crash-point explorer harness: sweep host-crash boundaries over the
 * durable fleet scenario and report every invariant violation.
 *
 * Usage:
 *   crash_explore [--threads N] [--points N] [--requests N]
 *                 [--sync-batch N] [--ckpt-every N] [--at EVENT]
 *
 * With --at, a single crash boundary is replayed (the way to rerun a
 * shrunk failure from a previous sweep); otherwise the stratified
 * sweep plus bisection shrink runs. Exit status is non-zero when any
 * invariant is violated. Each value must be a whole decimal in its
 * field's range (--points 0 sweeps every boundary, --ckpt-every 0
 * checkpoints only at start and recovery); any other argument prints
 * the usage and exits 2.
 */
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/explorer.hpp"

namespace {

[[noreturn]] void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--points N] [--requests N]"
                 " [--sync-batch N] [--ckpt-every N] [--at EVENT]\n",
                 argv0);
    std::exit(2);
}

/** One numeric flag: its name, the range its field accepts, and
 *  where its value goes. */
struct Flag
{
    const char* name;
    long long lo, hi;
    long long* value;
};

} // namespace

int
main(int argc, char** argv)
{
    serve::CrashExplorerConfig cfg;
    long long threads = cfg.host_threads;
    long long points = static_cast<long long>(cfg.max_points);
    long long requests = static_cast<long long>(cfg.n_requests);
    long long sync_batch = static_cast<long long>(cfg.wal_sync_batch);
    long long ckpt_every =
        static_cast<long long>(cfg.checkpoint_every_completions);
    long long at = -1;
    const Flag flags[] = {
        {"--threads", 1, INT_MAX, &threads},
        {"--points", 0, LLONG_MAX, &points},
        {"--requests", 1, LLONG_MAX, &requests},
        {"--sync-batch", 1, LLONG_MAX, &sync_batch},
        {"--ckpt-every", 0, LLONG_MAX, &ckpt_every},
        {"--at", 0, LLONG_MAX, &at},
    };
    for (int i = 1; i < argc; ++i) {
        const Flag* f = std::find_if(
            std::begin(flags), std::end(flags),
            [&](const Flag& fl) { return std::strcmp(fl.name, argv[i]) == 0; });
        if (f == std::end(flags) || i + 1 == argc)
            usage(argv[0]);
        const char* v = argv[++i];
        const char* end = v + std::strlen(v);
        long long n = 0;
        const auto [stop, ec] = std::from_chars(v, end, n);
        if (ec != std::errc() || stop != end || n < f->lo || n > f->hi)
            usage(argv[0]);
        *f->value = n;
    }
    cfg.host_threads = static_cast<int>(threads);
    cfg.max_points = static_cast<std::size_t>(points);
    cfg.n_requests = static_cast<std::size_t>(requests);
    cfg.wal_sync_batch = static_cast<std::size_t>(sync_batch);
    cfg.checkpoint_every_completions =
        static_cast<std::uint64_t>(ckpt_every);

    if (at >= 0) {
        const auto violations = serve::checkCrashPoint(
            cfg, static_cast<std::uint64_t>(at));
        if (violations.empty()) {
            std::printf("crash at event %lld: all invariants hold\n",
                        at);
            return 0;
        }
        std::printf("crash at event %lld: %zu violation(s)\n", at,
                    violations.size());
        for (const std::string& v : violations)
            std::printf("  - %s\n", v.c_str());
        return 1;
    }

    const serve::ExploreReport rep =
        serve::exploreCrashPoints(cfg);
    std::printf("baseline: %llu events, %llu completions\n",
                static_cast<unsigned long long>(rep.baseline_end),
                static_cast<unsigned long long>(
                    rep.baseline_completed));
    std::printf("tested %zu crash boundaries (threads=%d, "
                "sync_batch=%zu, ckpt_every=%llu)\n",
                rep.points_tested.size(), cfg.host_threads,
                cfg.wal_sync_batch,
                static_cast<unsigned long long>(
                    cfg.checkpoint_every_completions));
    if (rep.passed()) {
        std::printf("PASS: crash anywhere => no admitted High "
                    "request lost, completions bitwise identical, "
                    "counters reconciled\n");
        return 0;
    }
    std::printf("FAIL: %zu failing boundary/boundaries; minimal "
                "failing event %llu\n",
                rep.failures.size(),
                static_cast<unsigned long long>(
                    rep.min_failing));
    for (const auto& f : rep.failures) {
        std::printf("  event %llu:\n",
                    static_cast<unsigned long long>(f.point));
        for (const std::string& v : f.violations)
            std::printf("    - %s\n", v.c_str());
    }
    return 1;
}
