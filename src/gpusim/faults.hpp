/**
 * @file
 * Deterministic, seeded fault injection for the simulated GPU.
 *
 * A production VPPS deployment runs one persistent kernel for hours
 * over millions of minibatches; at that scale transient device faults
 * (DRAM ECC errors, launch failures, hung CTAs, allocation failures)
 * are routine events, not exceptional ones. The simulator is exactly
 * the place to study them deterministically: a FaultInjector owned by
 * the Device draws from its own xoshiro stream, and every draw happens
 * in serial host code, so a given FaultPlan produces the identical
 * fault sequence on every run and at every host thread count.
 *
 * The injected faults are all *detected* faults (the GPU's SECDED ECC
 * reports uncorrectable errors; a failed launch returns an error
 * code; a hung kernel trips a watchdog): the runtime sees an error
 * signal rather than silently corrupted data, which is what makes the
 * recovery policies in vpps::Handle able to restore bitwise-identical
 * training trajectories.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace gpusim {

/**
 * One scheduled fault on one interconnect link, identified by its
 * unordered endpoint pair. Like the device domain, windows are keyed
 * on the simulation clock (never the RNG), so layering a link
 * schedule onto an existing plan perturbs nothing else. The one
 * stochastic field, @ref loss_rate, draws from a *dedicated* stream
 * (FaultPlan::link_seed), not the transient stream.
 */
struct LinkFault
{
    /** Endpoints (unordered: a fault on (a,b) also covers (b,a)). */
    std::size_t a = 0;
    std::size_t b = 0;

    /** Start of a link-down window; < 0 never. */
    double down_at_us = -1.0;

    /** Down-window length; <= 0 with down_at_us >= 0 means the link
     *  never heals (a permanent cut). */
    double down_for_us = 0.0;

    /** Start of a degraded-bandwidth window; < 0 never. */
    double degrade_at_us = -1.0;

    /** Degrade-window length; <= 0 with degrade_at_us >= 0 means the
     *  degradation is permanent. */
    double degrade_for_us = 0.0;

    /** Bandwidth divisor inside the degrade window (1 = intact). */
    std::uint64_t degrade_factor = 1;

    /** P(a message traversing this link is dropped in flight). */
    double loss_rate = 0.0;
};

/** Per-category fault rates plus the stream seed. */
struct FaultPlan
{
    std::uint64_t seed = 1;

    /** P(a script H2D transfer is corrupted), per transfer. */
    double script_ecc_rate = 0.0;

    /** P(a VPP's cached-weight prologue load is corrupted), per VPP
     *  per launch. */
    double weight_ecc_rate = 0.0;

    /** P(a persistent-kernel launch fails), per launch attempt. */
    double launch_fail_rate = 0.0;

    /** P(one VPP hangs -- drops its next Signal), per invocation. */
    double hang_rate = 0.0;

    /** P(the batch workspace allocation fails), per batch attempt. */
    double alloc_fail_rate = 0.0;

    /** P(the 4-byte loss readback is corrupted), per readback. */
    double loss_ecc_rate = 0.0;

    /**
     * Permanent-fault mode: every launch of a kernel that caches
     * gradients in registers fails deterministically (modeling, e.g.,
     * a partially failed register file that only the register-hungry
     * specialization exercises). The GEMM-fallback kernel still
     * launches, so graceful degradation makes progress.
     */
    bool permanent_launch_faults = false;

    /**
     * @name Device-level fault domains
     *
     * Whole-device faults below the recovery ladder's floor: no
     * in-batch rung can revive dead silicon, so these are the faults
     * the replicated serving fleet (serve::Fleet) must absorb.
     * Unlike the transient categories above they are *scheduled* on
     * the device's monotonic wall clock (Device::clockUs(), the
     * serving layer's time base), not drawn per query, so a fleet
     * scenario can wedge exactly one replica at exactly one instant
     * and stay bitwise deterministic at any host thread count.
     * @{
     */

    /** Instant at which the device wedges permanently -- every batch
     *  dispatched at or after it fails with DeviceLost; < 0 never. */
    double wedge_at_us = -1.0;

    /** Start of a transient whole-device stall (driver/interconnect
     *  freeze); < 0 never. */
    double stall_at_us = -1.0;

    /** Stall length: a batch dispatched inside the window is delayed
     *  until the stall clears, but completes intact. */
    double stall_duration_us = 0.0;

    /** Instant at which @ref sm_disable_count SMs are hot-disabled
     *  (shrinking the VPP/CTA grid for every later launch); < 0
     *  never. */
    double sm_disable_at_us = -1.0;

    /** SMs lost to the hot disable. */
    int sm_disable_count = 0;

    /** @} */

    /**
     * @name Host fault domain
     *
     * The host process that owns the serving event loop is its own
     * fault domain: when it dies, every queued request, every
     * buffered-but-unsynced journal byte, and every JITted
     * specialization dies with it, and only stable storage survives
     * (DESIGN.md section 4.10). The crash point is keyed on the event
     * loop's deterministic event counter -- not wall clock, not the
     * RNG -- so "crash at event boundary k" is exactly reproducible
     * at any host thread count, which is what lets the crash-point
     * explorer enumerate every boundary of a run.
     * @{
     */

    /** Event boundary at which the host process crashes: the loop
     *  halts after processing this many events; < 0 never. */
    long long host_crash_at_event = -1;

    /** @} */

    /**
     * @name Link fault domain
     *
     * Interconnect faults between the fleet's nodes: down windows,
     * degraded-bandwidth windows, and seeded per-link message loss.
     * Down/degrade windows are clock-keyed like the device domain
     * (RNG-free queries); message loss draws from its own stream
     * seeded by @ref link_seed, so arming it never perturbs the
     * transient fault sequence (RNG-layering safety, tested).
     * @{
     */

    /** Scheduled link faults; multiple entries per link compose. */
    std::vector<LinkFault> link_faults;

    /** Seed of the dedicated message-loss stream. */
    std::uint64_t link_seed = 1;

    /** @} */

    /** Same rate for every transient category. */
    static FaultPlan uniform(double rate, std::uint64_t seed);

    /**
     * Plan from VPPS_FAULT_RATE / VPPS_FAULT_SEED environment
     * variables (the tools/check.sh soak pass); nullopt when
     * VPPS_FAULT_RATE is unset, or (with a warning) when it is not
     * wholly a number in (0, 1) or VPPS_FAULT_SEED is set but not
     * wholly a u64 decimal.
     */
    static std::optional<FaultPlan> fromEnv();

    bool
    any() const
    {
        return script_ecc_rate > 0.0 || weight_ecc_rate > 0.0 ||
               launch_fail_rate > 0.0 || hang_rate > 0.0 ||
               alloc_fail_rate > 0.0 || loss_ecc_rate > 0.0 ||
               permanent_launch_faults || anyDeviceDomain() ||
               anyLinkDomain();
    }

    bool
    anyDeviceDomain() const
    {
        return wedge_at_us >= 0.0 || stall_at_us >= 0.0 ||
               (sm_disable_at_us >= 0.0 && sm_disable_count > 0);
    }

    bool anyHostDomain() const { return host_crash_at_event >= 0; }

    bool anyLinkDomain() const { return !link_faults.empty(); }
};

/** Count of faults injected so far, per category. */
struct FaultLog
{
    std::uint64_t script_ecc = 0;
    std::uint64_t weight_ecc = 0;
    std::uint64_t launch_failures = 0;
    std::uint64_t hangs = 0;
    std::uint64_t alloc_failures = 0;
    std::uint64_t loss_ecc = 0;

    /** Device-domain events (scheduled, logged once each). */
    std::uint64_t device_wedges = 0;
    std::uint64_t device_stalls = 0;
    std::uint64_t sm_disables = 0;

    /** Host-domain events (scheduled, logged once). */
    std::uint64_t host_crashes = 0;

    /** Link-domain events (down/degrade logged once per scheduled
     *  window; one count per message actually lost in flight). */
    std::uint64_t link_downs = 0;
    std::uint64_t link_degrades = 0;
    std::uint64_t link_messages_lost = 0;

    /** Transient per-batch faults the in-batch recovery ladder sees.
     *  Device-domain events are excluded: they are absorbed one level
     *  up (replica failover / plan re-derivation), and the existing
     *  RecoveryStats <-> FaultLog reconciliation pairs only these. */
    std::uint64_t
    total() const
    {
        return script_ecc + weight_ecc + launch_failures + hangs +
               alloc_failures + loss_ecc;
    }
};

/**
 * Draws faults according to a FaultPlan. One injector per Device;
 * every query advances the deterministic stream and logs any hit.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan& plan() const { return plan_; }

    /** Faults injected so far (tests compare against the runtime's
     *  per-category recovery counters). */
    const FaultLog& injected() const { return log_; }

    /** Detected ECC error on a script H2D transfer? */
    bool corruptScriptTransfer();

    /** Detected ECC error on one VPP's cached-weight prologue load?
     *  @return the affected VPP (drawn uniformly), or nullopt. */
    std::optional<int> corruptWeightLoad(int num_vpps);

    /**
     * Does this launch attempt of the persistent kernel fail?
     * Permanent faults hit only gradient-cached kernels (see
     * FaultPlan::permanent_launch_faults).
     */
    bool failLaunch(bool gradients_cached);

    /**
     * Does one VPP hang this invocation? Drawn among @p eligible
     * (VPPs whose stream contains at least one Signal to drop).
     * @return the hung VPP id, or nullopt.
     */
    std::optional<int> drawHang(const std::vector<int>& eligible);

    /** Does the batch workspace allocation fail? */
    bool failBatchAlloc();

    /** Is the loss readback corrupted? */
    bool corruptLossReadback();

    /**
     * @name Device-domain queries
     *
     * Keyed on the device's monotonic wall clock instead of the
     * seeded stream: they never draw from the RNG, so installing a
     * device-domain schedule on top of an existing transient plan
     * leaves the transient fault sequence bit-for-bit unchanged.
     * Each logs its category once, on first trigger.
     * @{
     */

    /** Has the device wedged permanently as of @p now_us? */
    bool deviceWedged(double now_us);

    /**
     * Extra delay (us) a batch dispatched at @p now_us suffers from a
     * scheduled transient stall: the remainder of the stall window,
     * or 0 outside it.
     */
    double stallPenaltyUs(double now_us);

    /**
     * SMs to hot-disable as of @p now_us. Non-zero exactly once (the
     * first query at or after the scheduled instant); the caller
     * applies the shrink via Device::disableSms.
     */
    int smsToDisable(double now_us);

    /** @} */

    /**
     * Host-domain query, keyed on the serving event loop's event
     * counter (RNG-free, like the device domain): does the host
     * process crash at the boundary after @p events_processed events?
     * Logs its category once, on first trigger.
     */
    bool hostCrashAtBoundary(std::uint64_t events_processed);

    /**
     * @name Link-domain queries
     *
     * Down/degrade are clock-keyed and RNG-free, mirroring the device
     * domain; each scheduled window logs once, on first observation.
     * Message loss draws from the dedicated link stream only, so the
     * transient sequence is identical with or without a link plan.
     * Endpoint pairs are unordered.
     * @{
     */

    /** Is link (a,b) inside any down window at @p now_us? */
    bool linkDown(std::size_t a, std::size_t b, double now_us);

    /**
     * Earliest instant >= @p now_us at which link (a,b) is outside
     * every down window; +inf when a permanent cut covers @p now_us.
     */
    double linkUpAtUs(std::size_t a, std::size_t b,
                      double now_us) const;

    /** Combined bandwidth divisor of the degrade windows covering
     *  (a,b) at @p now_us; 1 when the link runs at full speed. */
    std::uint64_t linkDegradeFactor(std::size_t a, std::size_t b,
                                    double now_us);

    /** Is a message crossing link (a,b) lost in flight? One draw from
     *  the dedicated link stream per scheduled loss entry. */
    bool loseLinkMessage(std::size_t a, std::size_t b);

    /** @} */

  private:
    FaultPlan plan_;
    common::Rng rng_;
    common::Rng link_rng_;
    FaultLog log_;
    bool wedge_logged_ = false;
    bool stall_logged_ = false;
    bool sm_disable_applied_ = false;
    bool host_crash_logged_ = false;
    std::vector<bool> link_down_logged_;
    std::vector<bool> link_degrade_logged_;
};

} // namespace gpusim
