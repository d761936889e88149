#include "gpusim/faults.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/logging.hpp"

namespace gpusim {

namespace {

/** Does fault entry @p f cover the unordered pair (a,b)? */
bool
coversPair(const LinkFault& f, std::size_t a, std::size_t b)
{
    return (f.a == a && f.b == b) || (f.a == b && f.b == a);
}

/** Is @p t inside the window [at, at + length), where length <= 0
 *  means "never ends"? A negative @p at disables the window. */
bool
insideWindow(double at, double length, double t)
{
    if (at < 0.0 || t < at)
        return false;
    return length <= 0.0 || t < at + length;
}

} // namespace

FaultPlan
FaultPlan::uniform(double rate, std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.script_ecc_rate = rate;
    plan.weight_ecc_rate = rate;
    plan.launch_fail_rate = rate;
    plan.hang_rate = rate;
    plan.alloc_fail_rate = rate;
    plan.loss_ecc_rate = rate;
    return plan;
}

std::optional<FaultPlan>
FaultPlan::fromEnv()
{
    const char* rate_env = std::getenv("VPPS_FAULT_RATE");
    if (!rate_env)
        return std::nullopt;
    // At a rate of 1 every draw fires and no transfer ever succeeds.
    char* end = nullptr;
    const double rate = std::strtod(rate_env, &end);
    if (*end != '\0' || !(rate > 0.0 && rate < 1.0)) {
        common::warn("ignoring VPPS_FAULT_RATE='", rate_env,
                     "': not a rate in (0, 1)");
        return std::nullopt;
    }
    std::uint64_t seed = 1;
    if (const char* seed_env = std::getenv("VPPS_FAULT_SEED")) {
        const char* seed_end = seed_env + std::strlen(seed_env);
        const auto [stop, ec] = std::from_chars(seed_env, seed_end, seed);
        if (ec != std::errc() || stop != seed_end) {
            common::warn("ignoring VPPS_FAULT_SEED='", seed_env,
                         "': not a whole u64 decimal");
            return std::nullopt;
        }
    }
    return uniform(rate, seed);
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan), rng_(plan.seed), link_rng_(plan.link_seed),
      link_down_logged_(plan_.link_faults.size(), false),
      link_degrade_logged_(plan_.link_faults.size(), false)
{
}

bool
FaultInjector::corruptScriptTransfer()
{
    if (plan_.script_ecc_rate <= 0.0 ||
        !rng_.nextBernoulli(plan_.script_ecc_rate))
        return false;
    ++log_.script_ecc;
    return true;
}

std::optional<int>
FaultInjector::corruptWeightLoad(int num_vpps)
{
    if (num_vpps <= 0 || plan_.weight_ecc_rate <= 0.0 ||
        !rng_.nextBernoulli(plan_.weight_ecc_rate))
        return std::nullopt;
    ++log_.weight_ecc;
    return static_cast<int>(
        rng_.nextBelow(static_cast<std::uint64_t>(num_vpps)));
}

bool
FaultInjector::failLaunch(bool gradients_cached)
{
    if (plan_.permanent_launch_faults) {
        if (!gradients_cached)
            return false;
        ++log_.launch_failures;
        return true;
    }
    if (plan_.launch_fail_rate <= 0.0 ||
        !rng_.nextBernoulli(plan_.launch_fail_rate))
        return false;
    ++log_.launch_failures;
    return true;
}

std::optional<int>
FaultInjector::drawHang(const std::vector<int>& eligible)
{
    if (eligible.empty() || plan_.hang_rate <= 0.0 ||
        !rng_.nextBernoulli(plan_.hang_rate))
        return std::nullopt;
    ++log_.hangs;
    return eligible[rng_.nextBelow(eligible.size())];
}

bool
FaultInjector::failBatchAlloc()
{
    if (plan_.alloc_fail_rate <= 0.0 ||
        !rng_.nextBernoulli(plan_.alloc_fail_rate))
        return false;
    ++log_.alloc_failures;
    return true;
}

bool
FaultInjector::corruptLossReadback()
{
    if (plan_.loss_ecc_rate <= 0.0 ||
        !rng_.nextBernoulli(plan_.loss_ecc_rate))
        return false;
    ++log_.loss_ecc;
    return true;
}

bool
FaultInjector::deviceWedged(double now_us)
{
    if (plan_.wedge_at_us < 0.0 || now_us < plan_.wedge_at_us)
        return false;
    if (!wedge_logged_) {
        wedge_logged_ = true;
        ++log_.device_wedges;
    }
    return true;
}

double
FaultInjector::stallPenaltyUs(double now_us)
{
    if (plan_.stall_at_us < 0.0 || plan_.stall_duration_us <= 0.0 ||
        now_us < plan_.stall_at_us ||
        now_us >= plan_.stall_at_us + plan_.stall_duration_us)
        return 0.0;
    if (!stall_logged_) {
        stall_logged_ = true;
        ++log_.device_stalls;
    }
    return plan_.stall_at_us + plan_.stall_duration_us - now_us;
}

bool
FaultInjector::hostCrashAtBoundary(std::uint64_t events_processed)
{
    if (plan_.host_crash_at_event < 0 ||
        events_processed <
            static_cast<std::uint64_t>(plan_.host_crash_at_event))
        return false;
    if (!host_crash_logged_) {
        host_crash_logged_ = true;
        ++log_.host_crashes;
    }
    return true;
}

bool
FaultInjector::linkDown(std::size_t a, std::size_t b, double now_us)
{
    bool down = false;
    for (std::size_t i = 0; i < plan_.link_faults.size(); ++i) {
        const LinkFault& f = plan_.link_faults[i];
        if (!coversPair(f, a, b) ||
            !insideWindow(f.down_at_us, f.down_for_us, now_us))
            continue;
        if (!link_down_logged_[i]) {
            link_down_logged_[i] = true;
            ++log_.link_downs;
        }
        down = true;
    }
    return down;
}

double
FaultInjector::linkUpAtUs(std::size_t a, std::size_t b,
                          double now_us) const
{
    // Windows may abut or overlap; hop past each covering window
    // until none covers t. Terminates: each iteration retires at
    // least one entry (t only moves forward past its end).
    double t = now_us;
    for (std::size_t pass = 0; pass <= plan_.link_faults.size();
         ++pass) {
        bool covered = false;
        for (const LinkFault& f : plan_.link_faults) {
            if (!coversPair(f, a, b) ||
                !insideWindow(f.down_at_us, f.down_for_us, t))
                continue;
            if (f.down_for_us <= 0.0)
                return std::numeric_limits<double>::infinity();
            t = f.down_at_us + f.down_for_us;
            covered = true;
        }
        if (!covered)
            return t;
    }
    return t;
}

std::uint64_t
FaultInjector::linkDegradeFactor(std::size_t a, std::size_t b,
                                 double now_us)
{
    std::uint64_t factor = 1;
    for (std::size_t i = 0; i < plan_.link_faults.size(); ++i) {
        const LinkFault& f = plan_.link_faults[i];
        if (f.degrade_factor <= 1 || !coversPair(f, a, b) ||
            !insideWindow(f.degrade_at_us, f.degrade_for_us, now_us))
            continue;
        if (!link_degrade_logged_[i]) {
            link_degrade_logged_[i] = true;
            ++log_.link_degrades;
        }
        factor *= f.degrade_factor;
    }
    return factor;
}

bool
FaultInjector::loseLinkMessage(std::size_t a, std::size_t b)
{
    // One draw per scheduled loss entry keeps the dedicated stream's
    // draw count independent of outcomes (stable layering).
    bool lost = false;
    for (const LinkFault& f : plan_.link_faults) {
        if (f.loss_rate <= 0.0 || !coversPair(f, a, b))
            continue;
        if (link_rng_.nextBernoulli(f.loss_rate))
            lost = true;
    }
    if (lost)
        ++log_.link_messages_lost;
    return lost;
}

int
FaultInjector::smsToDisable(double now_us)
{
    if (sm_disable_applied_ || plan_.sm_disable_at_us < 0.0 ||
        plan_.sm_disable_count <= 0 || now_us < plan_.sm_disable_at_us)
        return 0;
    sm_disable_applied_ = true;
    ++log_.sm_disables;
    return plan_.sm_disable_count;
}

} // namespace gpusim
