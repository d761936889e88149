/**
 * @file
 * Unit tests of the structured-error layer (common::Status /
 * common::Result), the deterministic fault injector, and the
 * error-channel allocation path -- the building blocks the recovery
 * policies in vpps::Handle are made of.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>

#include "common/status.hpp"
#include "gpusim/device_memory.hpp"
#include "gpusim/faults.hpp"

namespace {

using common::ErrorCode;
using common::Result;
using common::Status;

TEST(Status, DefaultIsOkAndFree)
{
    Status ok;
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.code(), ErrorCode::Ok);
    EXPECT_EQ(ok.toString(), "ok");
}

TEST(Status, FailureCarriesDiagnostics)
{
    Status st = Status::failure(ErrorCode::HungVpp, "lost signal")
                    .withVpp(7)
                    .withPc(42)
                    .withBarrier(3)
                    .withAttempts(2);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), ErrorCode::HungVpp);
    EXPECT_EQ(st.error().vpp, 7);
    EXPECT_EQ(st.error().pc, 42);
    EXPECT_EQ(st.error().barrier, 3);
    EXPECT_EQ(st.error().attempts, 2);
    const std::string s = st.toString();
    EXPECT_NE(s.find("hung_vpp"), std::string::npos) << s;
    EXPECT_NE(s.find("lost signal"), std::string::npos) << s;
    EXPECT_NE(s.find("vpp=7"), std::string::npos) << s;
    EXPECT_NE(s.find("barrier=3"), std::string::npos) << s;
}

TEST(Status, ToStringOmitsUnsetFields)
{
    Status st = Status::failure(ErrorCode::OutOfMemory, "pool full");
    const std::string s = st.toString();
    EXPECT_EQ(s.find("vpp="), std::string::npos) << s;
    EXPECT_EQ(s.find("pc="), std::string::npos) << s;
    EXPECT_EQ(s.find("barrier="), std::string::npos) << s;
}

TEST(Status, ErrorCodeNamesAreExhaustiveAndDistinct)
{
    // kNumErrorCodes tracks the enum; every value must map to its
    // own name, and none may fall through to the "unknown" default.
    // A new ErrorCode without a switch case fails here instead of
    // surfacing as an unreadable diagnostic in a fault log.
    std::set<std::string> seen;
    for (int c = 0; c < common::kNumErrorCodes; ++c) {
        const char* name =
            common::errorCodeName(static_cast<ErrorCode>(c));
        ASSERT_NE(name, nullptr) << "code " << c;
        const std::string s(name);
        EXPECT_GT(s.size(), 0u) << "code " << c;
        EXPECT_NE(s, "unknown")
            << "code " << c << " fell through the name switch";
        EXPECT_TRUE(seen.insert(s).second)
            << "code " << c << " reuses the name \"" << s << "\"";
    }
    EXPECT_EQ(common::errorCodeName(
                  static_cast<ErrorCode>(common::kNumErrorCodes)),
              std::string("unknown"))
        << "out-of-range codes must hit the default";
}

TEST(Status, NetworkErrorCodeNamesAreWireStable)
{
    // The network fault domain's codes render under these exact
    // names in fault logs and bench JSON; renames are a breaking
    // change for downstream parsers, so pin them.
    EXPECT_EQ(std::string(
                  common::errorCodeName(ErrorCode::LinkDown)),
              "link_down");
    EXPECT_EQ(std::string(
                  common::errorCodeName(ErrorCode::Partitioned)),
              "partitioned");
    EXPECT_EQ(std::string(
                  common::errorCodeName(ErrorCode::FencedEpoch)),
              "fenced_epoch");
}

TEST(Result, HoldsValueOrStatus)
{
    Result<int> good(41);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 41);

    Result<int> bad(
        Status::failure(ErrorCode::MalformedScript, "bad opcode"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::MalformedScript);
    Status taken = bad.takeStatus();
    EXPECT_EQ(taken.code(), ErrorCode::MalformedScript);
}

TEST(FaultInjector, SameSeedSameFaultSequence)
{
    const auto plan = gpusim::FaultPlan::uniform(0.3, 99);
    gpusim::FaultInjector a(plan), b(plan);
    std::vector<int> eligible = {0, 1, 2, 3};
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(a.corruptScriptTransfer(), b.corruptScriptTransfer());
        EXPECT_EQ(a.corruptWeightLoad(8), b.corruptWeightLoad(8));
        EXPECT_EQ(a.failLaunch(true), b.failLaunch(true));
        EXPECT_EQ(a.drawHang(eligible), b.drawHang(eligible));
        EXPECT_EQ(a.failBatchAlloc(), b.failBatchAlloc());
        EXPECT_EQ(a.corruptLossReadback(), b.corruptLossReadback());
    }
    EXPECT_EQ(a.injected().total(), b.injected().total());
    EXPECT_GT(a.injected().total(), 0u);
}

TEST(FaultInjector, ZeroRatesNeverFire)
{
    gpusim::FaultInjector inj(gpusim::FaultPlan{});
    std::vector<int> eligible = {0, 1};
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(inj.corruptScriptTransfer());
        EXPECT_FALSE(inj.corruptWeightLoad(4).has_value());
        EXPECT_FALSE(inj.failLaunch(true));
        EXPECT_FALSE(inj.drawHang(eligible).has_value());
        EXPECT_FALSE(inj.failBatchAlloc());
        EXPECT_FALSE(inj.corruptLossReadback());
    }
    EXPECT_EQ(inj.injected().total(), 0u);
}

TEST(FaultInjector, PermanentLaunchFaultsSpareTheFallback)
{
    gpusim::FaultPlan plan;
    plan.permanent_launch_faults = true;
    gpusim::FaultInjector inj(plan);
    EXPECT_TRUE(inj.failLaunch(/*gradients_cached=*/true));
    EXPECT_TRUE(inj.failLaunch(true));
    EXPECT_FALSE(inj.failLaunch(/*gradients_cached=*/false));
    EXPECT_EQ(inj.injected().launch_failures, 2u);
}

TEST(FaultInjector, HangNeedsAnEligibleVpp)
{
    gpusim::FaultInjector inj(gpusim::FaultPlan::uniform(1.0, 5));
    EXPECT_FALSE(inj.drawHang({}).has_value());
    EXPECT_EQ(inj.injected().hangs, 0u);
    const auto hung = inj.drawHang({3});
    ASSERT_TRUE(hung.has_value());
    EXPECT_EQ(*hung, 3);
    EXPECT_EQ(inj.injected().hangs, 1u);
}

TEST(FaultPlan, FromEnvRoundTrip)
{
    unsetenv("VPPS_FAULT_RATE");
    EXPECT_FALSE(gpusim::FaultPlan::fromEnv().has_value());

    setenv("VPPS_FAULT_RATE", "0.25", 1);
    setenv("VPPS_FAULT_SEED", "77", 1);
    const auto plan = gpusim::FaultPlan::fromEnv();
    ASSERT_TRUE(plan.has_value());
    EXPECT_DOUBLE_EQ(plan->script_ecc_rate, 0.25);
    EXPECT_DOUBLE_EQ(plan->hang_rate, 0.25);
    EXPECT_EQ(plan->seed, 77u);
    EXPECT_FALSE(plan->permanent_launch_faults);

    setenv("VPPS_FAULT_RATE", "0", 1);
    EXPECT_FALSE(gpusim::FaultPlan::fromEnv().has_value());
    unsetenv("VPPS_FAULT_RATE");
    unsetenv("VPPS_FAULT_SEED");
}

TEST(FaultPlan, FromEnvIgnoresRatesOutsideTheUnitInterval)
{
    // At a rate of 1 or more every draw fires, so no script transfer
    // could ever succeed: such a plan is never armed.
    for (const char* bad : {"1", "1.5", "-0.25", "0.5x", "nan", ""}) {
        setenv("VPPS_FAULT_RATE", bad, 1);
        EXPECT_FALSE(gpusim::FaultPlan::fromEnv().has_value())
            << "'" << bad << "'";
    }
    setenv("VPPS_FAULT_RATE", "0.999", 1);
    EXPECT_TRUE(gpusim::FaultPlan::fromEnv().has_value());
    unsetenv("VPPS_FAULT_RATE");
}

TEST(DeviceMemory, TryAllocateReportsExhaustionWithoutAborting)
{
    gpusim::DeviceMemory mem(16);
    const auto a = mem.tryAllocate(10, gpusim::MemSpace::Workspace);
    ASSERT_TRUE(a.has_value());
    EXPECT_FALSE(
        mem.tryAllocate(10, gpusim::MemSpace::Workspace).has_value());
    const auto b = mem.tryAllocate(6, gpusim::MemSpace::Workspace);
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(mem.used(), 16u);
}

} // namespace
