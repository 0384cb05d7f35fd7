/**
 * @file
 * Tests for the DRIPS/ODRIPS entry and exit flows, parameterized over
 * the paper's technique configurations. Verifies ordering guarantees,
 * power levels reached in the idle state, latency envelopes, and
 * end-to-end context integrity.
 */

#include <gtest/gtest.h>

#include "flows/flow_sequence.hh"
#include "flows/standby_flows.hh"
#include "platform/platform.hh"
#include "sim/logging.hh"

using namespace odrips;

namespace
{

TEST(FlowSequenceTest, ExecutesStepsInOrderWithDurations)
{
    EventQueue eq;
    std::vector<std::string> order;
    FlowSequence flow("f");
    flow.addFixed("a", 10 * oneUs, [&](Tick) { order.push_back("a"); });
    flow.addFixed("b", 5 * oneUs, [&](Tick) { order.push_back("b"); });
    flow.add({"c", [&](Tick) {
        order.push_back("c");
        return Tick{oneUs};
    }});

    const FlowResult r = flow.execute(eq);
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(r.latency(), 16 * oneUs);
    EXPECT_EQ(r.steps.size(), 3u);
    EXPECT_EQ(r.stepDuration("a"), 10 * oneUs);
    EXPECT_EQ(r.stepDuration("missing"), 0);
}

TEST(FlowSequenceTest, StepsSeeMonotonicStartTimes)
{
    EventQueue eq;
    FlowSequence flow("f");
    std::vector<Tick> starts;
    for (int i = 0; i < 3; ++i) {
        // Named lvalue sidesteps a GCC 12 -Wrestrict false positive on
        // operator+(const char *, std::string &&) at -O3.
        std::string name = "s";
        name += std::to_string(i);
        flow.addFixed(name, oneUs, [&](Tick t) { starts.push_back(t); });
    }
    eq.run(5 * oneUs); // start the flow at t = 5 us
    flow.execute(eq);
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(starts[0], 5 * oneUs);
    EXPECT_EQ(starts[1], 6 * oneUs);
    EXPECT_EQ(starts[2], 7 * oneUs);
}

TEST(FlowSequenceTest, OtherEventsInterleave)
{
    EventQueue eq;
    int samples = 0;
    Event sampler("s", [&] {
        ++samples;
        eq.scheduleAfter(sampler, oneUs);
    });
    eq.scheduleAfter(sampler, oneUs);

    FlowSequence flow("f");
    flow.addFixed("long", 10 * oneUs);
    flow.execute(eq);
    EXPECT_GE(samples, 9);
}

TEST(FlowSequenceTest, EmptyFlowCompletesImmediately)
{
    EventQueue eq;
    FlowSequence flow("f");
    const FlowResult r = flow.execute(eq);
    EXPECT_EQ(r.latency(), 0);
}

/** Parameterized over the Fig. 6(a) technique sets. */
struct FlowCase
{
    const char *name;
    TechniqueSet tech;
};

// Print a case by its name: gtest's default dumps the raw bytes, which
// hold the address of `name` and so change from run to run under ASLR,
// renaming the discovered ctest cases on every build.
void
PrintTo(const FlowCase &c, std::ostream *os)
{
    *os << c.name;
}

class StandbyFlowTest : public ::testing::TestWithParam<FlowCase>
{
  protected:
    StandbyFlowTest() : platform(skylakeConfig()) {}

    Platform platform;
};

TEST_P(StandbyFlowTest, EntryReachesExpectedIdlePower)
{
    StandbyFlows flows(platform, GetParam().tech);
    flows.enterIdle();

    const double idle = flows.idleBatteryPower().watts();
    // Baseline lands at ~60 mW; every technique strictly reduces it;
    // full ODRIPS lands near 43-44 mW.
    EXPECT_GT(idle, 0.040);
    EXPECT_LT(idle, 0.0605);
    if (GetParam().tech.any()) {
        EXPECT_LT(idle, 0.0585);
    }
}

TEST_P(StandbyFlowTest, ExitRestoresActivePower)
{
    StandbyFlows flows(platform, GetParam().tech);
    const double before = platform.batteryPower().watts();
    flows.enterIdle();
    platform.eq.run(platform.now() + 10 * oneMs);
    flows.exitIdle();
    EXPECT_NEAR(platform.batteryPower().watts(), before,
                before * 0.01);
}

TEST_P(StandbyFlowTest, ContextSurvivesCycle)
{
    StandbyFlows flows(platform, GetParam().tech);
    const std::uint64_t checksum = platform.processor.context.checksum();
    flows.enterIdle();
    platform.eq.run(platform.now() + 50 * oneMs);
    flows.exitIdle();
    EXPECT_TRUE(flows.lastCycle().contextIntact);
    EXPECT_EQ(platform.processor.context.checksum(), checksum);
}

TEST_P(StandbyFlowTest, LatenciesWithinEnvelope)
{
    StandbyFlows flows(platform, GetParam().tech);
    const FlowResult entry = flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    const FlowResult exit = flows.exitIdle();

    // Paper: entry ~200 us, exit ~300 us, with techniques adding a few
    // tens of microseconds.
    EXPECT_GT(entry.latency(), 150 * oneUs);
    EXPECT_LT(entry.latency(), 320 * oneUs);
    EXPECT_GT(exit.latency(), 250 * oneUs);
    EXPECT_LT(exit.latency(), 450 * oneUs);
}

TEST_P(StandbyFlowTest, RepeatedCyclesAreStable)
{
    StandbyFlows flows(platform, GetParam().tech);
    double first_idle = 0;
    for (int i = 0; i < 3; ++i) {
        flows.enterIdle();
        platform.eq.run(platform.now() + oneMs);
        const double idle = flows.idleBatteryPower().watts();
        if (i == 0)
            first_idle = idle;
        else
            EXPECT_NEAR(idle, first_idle, 1e-9);
        flows.exitIdle();
        platform.eq.run(platform.now() + oneMs);
        platform.processor.context.touch();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Fig6aConfigs, StandbyFlowTest,
    ::testing::Values(
        FlowCase{"baseline", TechniqueSet::baseline()},
        FlowCase{"wakeup_off", TechniqueSet::wakeupOffOnly()},
        FlowCase{"aon_io_gate", TechniqueSet::aonIoGated()},
        FlowCase{"ctx_sgx_dram", TechniqueSet::ctxSgxDram()},
        FlowCase{"odrips", TechniqueSet::odrips()},
        FlowCase{"odrips_mram", TechniqueSet::odripsMram()}),
    [](const ::testing::TestParamInfo<FlowCase> &param_info) {
        return param_info.param.name;
    });

class OdripsFlowDetails : public ::testing::Test
{
  protected:
    OdripsFlowDetails()
        : platform(skylakeConfig()),
          flows(platform, TechniqueSet::odrips())
    {
    }

    Platform platform;
    StandbyFlows flows;
};

TEST_F(OdripsFlowDetails, CrystalAndClocksOffInIdle)
{
    flows.enterIdle();
    EXPECT_FALSE(platform.board.xtal24.enabled());
    EXPECT_TRUE(platform.board.xtal32.enabled());
    EXPECT_FALSE(platform.chipset.fastClock.running());
    EXPECT_DOUBLE_EQ(platform.board.xtal24Comp.power().watts(), 0.0);

    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();
    EXPECT_TRUE(platform.board.xtal24.enabled());
    EXPECT_TRUE(platform.chipset.fastClock.running());
}

TEST_F(OdripsFlowDetails, AonIosGatedInIdle)
{
    flows.enterIdle();
    EXPECT_FALSE(platform.processor.aonIos.powered());
    EXPECT_FALSE(flows.fetGate()->conducting());
    EXPECT_GT(platform.board.fetLeakage.power().watts(), 0.0);
    EXPECT_FALSE(platform.pml.up());

    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();
    EXPECT_TRUE(platform.processor.aonIos.powered());
    EXPECT_TRUE(platform.pml.up());
    EXPECT_DOUBLE_EQ(platform.board.fetLeakage.power().watts(), 0.0);
}

TEST_F(OdripsFlowDetails, SrSramsOffAndResidualCharged)
{
    flows.enterIdle();
    EXPECT_EQ(platform.processor.saSram.state(), SramState::Off);
    EXPECT_EQ(platform.processor.coresSram.state(), SramState::Off);
    EXPECT_GT(platform.processor.srResidual.power().watts(), 0.0);
    // Boot SRAM still retains (it holds the MEE root).
    EXPECT_EQ(platform.processor.bootSram.state(), SramState::Retention);

    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();
    EXPECT_EQ(platform.processor.saSram.state(), SramState::Active);
    EXPECT_DOUBLE_EQ(platform.processor.srResidual.power().watts(),
                     0.0);
}

TEST_F(OdripsFlowDetails, DramInSelfRefreshDuringIdle)
{
    flows.enterIdle();
    EXPECT_TRUE(platform.memory->inRetention());
    EXPECT_DOUBLE_EQ(platform.memoryComp.power().watts(),
                     platform.cfg.dram.selfRefreshPower.watts());
    EXPECT_GT(platform.ckeComp.power().watts(), 0.0);

    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();
    EXPECT_FALSE(platform.memory->inRetention());
}

TEST_F(OdripsFlowDetails, ContextTravelsThroughMee)
{
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();

    const CycleRecord &rec = flows.lastCycle();
    ASSERT_TRUE(rec.contextSave.has_value());
    ASSERT_TRUE(rec.contextRestore.has_value());
    EXPECT_TRUE(rec.contextRestore->authentic);
    EXPECT_EQ(rec.contextSave->bytes, 200ULL << 10);

    // Sec. 6.3: save ~18 us, restore ~13 us on DDR3L-1600. Accept the
    // paper's own 95% estimation-accuracy window, generously.
    EXPECT_NEAR(ticksToSeconds(rec.contextSave->latency), 18e-6, 4e-6);
    EXPECT_NEAR(ticksToSeconds(rec.contextRestore->latency), 13e-6,
                4e-6);
    EXPECT_LT(rec.contextRestore->latency, rec.contextSave->latency);
}

TEST_F(OdripsFlowDetails, TimerHandoverRecordsCaptured)
{
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();

    const CycleRecord &rec = flows.lastCycle();
    ASSERT_TRUE(rec.toSlow.has_value());
    ASSERT_TRUE(rec.toFast.has_value());
    // Entry handover waits at most one 32 kHz period.
    EXPECT_LE(rec.toSlow->latency(),
              platform.chipset.slowClock.period() + oneUs);
    // Exit handover includes the crystal restart.
    EXPECT_GE(rec.toFast->latency(),
              platform.cfg.timings.xtalRestart);
}

TEST_F(OdripsFlowDetails, TscStaysAccurateAcrossCycle)
{
    flows.enterIdle();
    platform.eq.run(platform.now() + 100 * oneMs);
    flows.exitIdle();

    const Tick now = platform.now();
    const double expected =
        ticksToSeconds(now) * platform.board.xtal24.actualHz();
    const double counted =
        static_cast<double>(platform.processor.tsc.valueAt(now));
    // The round trip through the slow timer keeps 1 ppb-class accuracy;
    // allow edge quantization of the handovers.
    EXPECT_NEAR(counted, expected, 5.0);
}

TEST_F(OdripsFlowDetails, CalibrationMatchesPaperRepresentation)
{
    ASSERT_TRUE(flows.calibration().has_value());
    EXPECT_EQ(flows.calibration()->integerBits, 10u);
    EXPECT_EQ(flows.calibration()->fractionBits, 21u);
}

TEST(BaselineFlowDetails, BaselineKeepsCrystalAndSrams)
{
    Platform platform(skylakeConfig());
    StandbyFlows flows(platform, TechniqueSet::baseline());
    flows.enterIdle();

    EXPECT_TRUE(platform.board.xtal24.enabled());
    EXPECT_TRUE(platform.processor.aonIos.powered());
    EXPECT_EQ(platform.processor.saSram.state(), SramState::Retention);
    EXPECT_EQ(platform.processor.coresSram.state(),
              SramState::Retention);
    EXPECT_GT(platform.processor.wakeTimer.power().watts(), 0.0);
    EXPECT_EQ(flows.fetGate(), nullptr);
    EXPECT_FALSE(flows.calibration().has_value());
}

TEST(MramFlowDetails, ContextGoesToEmramNotDram)
{
    Platform platform(skylakeConfig());
    StandbyFlows flows(platform, TechniqueSet::odripsMram());
    flows.enterIdle();

    // eMRAM holds the context with zero power while idle.
    EXPECT_FALSE(platform.emram->poweredOn());
    EXPECT_DOUBLE_EQ(platform.emramComp.power().watts(), 0.0);
    EXPECT_GT(platform.emram->totalWrites(), 0u);
    // No MEE traffic for the MRAM path.
    EXPECT_EQ(platform.mee->statistics().linesWritten, 0u);

    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle();
    EXPECT_TRUE(flows.lastCycle().contextIntact);
}

TEST(FlowErrorHandling, ExitWithoutEntryPanics)
{
    Logger::throwOnError(true);
    Platform platform(skylakeConfig());
    StandbyFlows flows(platform, TechniqueSet::baseline());
    EXPECT_THROW(flows.exitIdle(), SimError);
    flows.enterIdle();
    EXPECT_THROW(flows.enterIdle(), SimError);
    Logger::throwOnError(false);
}

class WakeDetectionTest : public ::testing::Test
{
  protected:
    WakeDetectionTest() : platform(skylakeConfig()) {}
    Platform platform;
};

TEST_F(WakeDetectionTest, BaselineDetectionIsImmediate)
{
    StandbyFlows flows(platform, TechniqueSet::baseline());
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle(WakeReason::Network);
    EXPECT_EQ(flows.lastCycle().wakeReason, WakeReason::Network);
    EXPECT_EQ(flows.lastCycle().wakeDetectLatency,
              platform.cfg.timings.wakeDetect);
}

TEST_F(WakeDetectionTest, OdripsExternalWakePaysSlowSampling)
{
    StandbyFlows flows(platform, TechniqueSet::odrips());
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle(WakeReason::Network);

    const Tick latency = flows.lastCycle().wakeDetectLatency;
    // Up to one 32 kHz period on top of the fixed detection time.
    EXPECT_GE(latency, platform.cfg.timings.wakeDetect);
    EXPECT_LE(latency, platform.cfg.timings.wakeDetect +
                           platform.chipset.slowClock.period());
}

TEST_F(WakeDetectionTest, OdripsTimerWakeIsEdgeAligned)
{
    // Timer wakes are produced by the slow timer itself, so they do
    // not pay an extra sampling wait.
    StandbyFlows flows(platform, TechniqueSet::odrips());
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    flows.exitIdle(WakeReason::KernelTimer);
    EXPECT_EQ(flows.lastCycle().wakeDetectLatency,
              platform.cfg.timings.wakeDetect);
}

TEST_F(WakeDetectionTest, ThermalEventThroughChipsetGpio)
{
    StandbyFlows flows(platform, TechniqueSet::odrips());
    ASSERT_NE(flows.thermalMonitor(), nullptr);
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);

    // The EC asserts the thermal line mid-period.
    auto *monitor = const_cast<ThermalMonitor *>(flows.thermalMonitor());
    monitor->driveLine(true, platform.now());
    flows.exitIdle(WakeReason::User);

    const Tick latency = flows.lastCycle().wakeDetectLatency;
    EXPECT_GE(latency, platform.cfg.timings.wakeDetect);
    EXPECT_LE(latency, platform.cfg.timings.wakeDetect +
                           monitor->worstCaseLatency());
    monitor->driveLine(false, platform.now());
}

TEST_F(WakeDetectionTest, BaselineHasNoThermalMonitor)
{
    StandbyFlows flows(platform, TechniqueSet::baseline());
    EXPECT_EQ(flows.thermalMonitor(), nullptr);
}

class FlowOrderingTest : public ::testing::Test
{
  protected:
    FlowOrderingTest()
        : platform(skylakeConfig()),
          flows(platform, TechniqueSet::odrips())
    {
    }

    static std::size_t
    indexOf(const FlowResult &r, const std::string &name)
    {
        for (std::size_t i = 0; i < r.steps.size(); ++i) {
            if (r.steps[i].name == name)
                return i;
        }
        ADD_FAILURE() << "step '" << name << "' not found";
        return 0;
    }

    Platform platform;
    StandbyFlows flows;
};

TEST_F(FlowOrderingTest, EntryFollowsSection22Order)
{
    const FlowResult entry = flows.enterIdle();

    // Sec. 2.2's six ordered actions, extended by the techniques:
    // LLC flush -> compute VR off -> SA save -> context off-chip ->
    // DRAM self-refresh -> timer migration -> IO gating -> PMU gate.
    EXPECT_LT(indexOf(entry, "llc-flush"),
              indexOf(entry, "vr-compute-off"));
    EXPECT_LT(indexOf(entry, "vr-compute-off"),
              indexOf(entry, "sa-context-save"));
    EXPECT_LT(indexOf(entry, "sa-context-save"),
              indexOf(entry, "ctx-flush-sa"));
    EXPECT_LT(indexOf(entry, "ctx-flush-cores"),
              indexOf(entry, "boot-context-save"));
    // The MEE flush + self-refresh must come after the context landed.
    EXPECT_LT(indexOf(entry, "ctx-flush-cores"),
              indexOf(entry, "dram-self-refresh"));
    // Timer migration only after DRAM is safe (the 24 MHz domain dies
    // with it), and IO gating only after the timer moved (footnote 4).
    EXPECT_LT(indexOf(entry, "dram-self-refresh"),
              indexOf(entry, "timer-migrate"));
    EXPECT_LT(indexOf(entry, "timer-migrate"),
              indexOf(entry, "aon-io-gate"));
    EXPECT_LT(indexOf(entry, "aon-io-gate"),
              indexOf(entry, "pmu-gate"));
    EXPECT_EQ(entry.steps.back().name, "idle-entered");
}

TEST_F(FlowOrderingTest, ExitFollowsSection62Order)
{
    flows.enterIdle();
    platform.eq.run(platform.now() + oneMs);
    const FlowResult exit = flows.exitIdle();

    // Sec. 6.2: the Boot FSM restores PMU/MC/MEE *before* any
    // protected DRAM access; the timer returns before PML traffic
    // goes out; VR ramp for compute comes after the context is home.
    EXPECT_LT(indexOf(exit, "wake-detect"),
              indexOf(exit, "timer-to-fast"));
    EXPECT_LT(indexOf(exit, "timer-to-fast"),
              indexOf(exit, "aon-io-ungate"));
    EXPECT_LT(indexOf(exit, "aon-io-ungate"),
              indexOf(exit, "timer-to-processor"));
    EXPECT_LT(indexOf(exit, "boot-fsm-restore"),
              indexOf(exit, "dram-exit-self-refresh"));
    EXPECT_LT(indexOf(exit, "dram-exit-self-refresh"),
              indexOf(exit, "ctx-restore-sa"));
    EXPECT_LT(indexOf(exit, "ctx-restore-sa"),
              indexOf(exit, "ctx-restore-cores"));
    EXPECT_LT(indexOf(exit, "ctx-restore-cores"),
              indexOf(exit, "vr-ramp-up"));
    EXPECT_EQ(exit.steps.back().name, "platform-active");
}

TEST_F(FlowOrderingTest, BaselineSkipsTechniqueSteps)
{
    Platform p2(skylakeConfig());
    StandbyFlows base(p2, TechniqueSet::baseline());
    const FlowResult entry = base.enterIdle();
    for (const StepRecord &step : entry.steps) {
        EXPECT_EQ(step.name.find("timer-migrate"), std::string::npos);
        EXPECT_EQ(step.name.find("aon-io-gate"), std::string::npos);
        EXPECT_EQ(step.name.find("ctx-flush"), std::string::npos);
    }
    p2.eq.run(p2.now() + oneMs);
    const FlowResult exit = base.exitIdle();
    for (const StepRecord &step : exit.steps) {
        EXPECT_EQ(step.name.find("boot-fsm-restore"), std::string::npos);
        EXPECT_EQ(step.name.find("timer-to-fast"), std::string::npos);
    }
}

TEST_F(FlowOrderingTest, StepDurationsSumToFlowLatency)
{
    const FlowResult entry = flows.enterIdle();
    Tick sum = 0;
    for (const StepRecord &step : entry.steps)
        sum += step.duration;
    EXPECT_EQ(sum, entry.latency());
}

} // namespace
