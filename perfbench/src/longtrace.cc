/**
 * @file
 * longtrace: one ODRIPS platform under the CsrSubset context-mutation
 * model, stepped through a seeded standby trace cycle by cycle with
 * beginRun()/stepCycle()/finishRun(), on one worker. It loads the event
 * kernel and the flows, and it uses the MEE differently from the sweep:
 * after the first cycle every context save is incremental (only the
 * dirtied lines). It builds nothing per op.
 */

#include <memory>

#include "core/standby_simulator.hh"
#include "harness.hh"
#include "platform/platform.hh"

namespace perfbench
{

using namespace odrips;

namespace
{

/** Cycles folded into the run's digest (and replayed by the
 * determinism recheck). */
constexpr std::size_t kPrefixCycles = 256;
/** Fewest cycles in an untraced run. */
constexpr std::size_t kMinCycles = 1000;
/** Cycles per throughput block. */
constexpr std::size_t kBlockCycles = 100;
/** Trace cycles generated per chunk (outside the timed loop). */
constexpr std::size_t kChunkCycles = 2048;

PlatformConfig
longtraceConfig(std::uint64_t seed)
{
    PlatformConfig cfg = skylakeConfig();
    cfg.contextMutation.kind = ContextMutationKind::CsrSubset;
    cfg.workload.seed = seed;
    return cfg;
}

/** The seeded trace, generated in chunks as the run needs cycles. */
class TraceSource
{
  public:
    explicit TraceSource(const WorkloadConfig &cfg) : gen(cfg) {}

    const StandbyCycle &
    at(std::size_t i)
    {
        while (cycles.size() <= i) {
            const StandbyTrace chunk = gen.generate(kChunkCycles);
            cycles.insert(cycles.end(), chunk.cycles.begin(),
                          chunk.cycles.end());
        }
        return cycles[i];
    }

  private:
    StandbyWorkloadGenerator gen;
    std::vector<StandbyCycle> cycles;
};

/** A platform and its simulator. */
struct Machine
{
    explicit Machine(const PlatformConfig &cfg)
        : platform(std::make_unique<Platform>(cfg)),
          sim(std::make_unique<StandbySimulator>(*platform,
                                                 TechniqueSet::odrips()))
    {
    }

    std::unique_ptr<Platform> platform;
    std::unique_ptr<StandbySimulator> sim;
};

/** Observable outputs of the cycle just simulated. */
std::uint64_t
cycleDigest(const Platform &p, const StandbyFlows &flows)
{
    const CycleRecord &rec = flows.lastCycle();
    Digest d;
    d.add(static_cast<std::uint64_t>(rec.entry.latency()));
    d.add(static_cast<std::uint64_t>(rec.exit.latency()));
    d.add(static_cast<std::uint64_t>(
        rec.contextSave ? rec.contextSave->latency : 0));
    d.add(static_cast<std::uint64_t>(
        rec.contextRestore ? rec.contextRestore->latency : 0));
    d.add(static_cast<std::uint64_t>(rec.wakeDetectLatency));
    d.add(rec.contextIntact);
    d.add(static_cast<std::uint64_t>(p.now()));
    d.add(p.batteryPower().watts());
    return d.value();
}

std::uint64_t
resultDigest(const Platform &p, const StandbyResult &r)
{
    Digest d;
    d.add(p.accountant.batteryEnergy().joules());
    d.add(r.averageBatteryPower);
    d.add(r.idleBatteryPower);
    d.add(r.activeBatteryPower);
    d.add(r.idleResidency);
    d.add(r.activeResidency);
    d.add(r.transitionResidency);
    d.add(static_cast<std::uint64_t>(r.meanEntryLatency));
    d.add(static_cast<std::uint64_t>(r.meanExitLatency));
    d.add(static_cast<std::uint64_t>(r.simulatedTime));
    d.add(r.cycles);
    d.add(r.contextIntact);
    return d.value();
}

/**
 * StandbySimulator::stepCycle() replayed call by call with a span
 * around each step. The energy it leaves behind must equal the
 * library's bit for bit.
 */
void
tracedStep(Platform &p, StandbyFlows &flows, RunProgress &progress,
           const StandbyCycle &cycle, Tracer &tr, LayerCounts &lc)
{
    const FlowResult entry = eventSpan(tr, lc, p.eq, "flows.enter_idle.ctx",
                                       [&] { return flows.enterIdle(); });
    progress.entryTotal += entry.latency();
    progress.transitionTime += entry.latency();
    if (!progress.idlePowerCaptured) {
        progress.result.idleBatteryPower = flows.idleBatteryPower().watts();
        progress.idlePowerCaptured = true;
    }

    eventSpan(tr, lc, p.eq, "sim.eq_run.idle",
              [&] { p.eq.run(p.now() + cycle.idleDwell); });
    progress.idleTime += cycle.idleDwell;

    const FlowResult exit =
        eventSpan(tr, lc, p.eq, "flows.exit_idle.ctx",
                  [&] { return flows.exitIdle(cycle.reason); });
    progress.exitTotal += exit.latency();
    progress.transitionTime += exit.latency();
    if (!progress.activePowerCaptured) {
        progress.result.activeBatteryPower = p.batteryPower().watts();
        progress.activePowerCaptured = true;
    }

    // The active window: CPU-bound segment, then the stall segment.
    Processor &proc = p.processor;
    const Tick cpuTime = secondsToTicks(
        static_cast<double>(cycle.cpuCycles) / proc.coreFrequencyHz);
    const Clock::time_point activeStart = Clock::now();
    const std::uint64_t activeEvents = p.eq.executedEvents();
    proc.applyActivePower(p.now());
    p.eq.run(p.now() + cpuTime);
    if (cycle.stallTime > 0) {
        proc.coresGfx.setPower(proc.stallPower(), p.now());
        p.eq.run(p.now() + cycle.stallTime);
        proc.applyActivePower(p.now());
    }
    const double activeSeconds = secondsSince(activeStart);
    tr.record("sim.eq_run.active", activeSeconds);
    lc.events += p.eq.executedEvents() - activeEvents;
    lc.eventSeconds += activeSeconds;

    tr.span("platform.context_touch", [&] { proc.context.touch(); });
    progress.activeTime += cycle.activeDuration(proc.coreFrequencyHz);
    progress.result.contextIntact =
        progress.result.contextIntact && flows.lastCycle().contextIntact;
    ++progress.cyclesDone;
}

} // namespace

void
runLongtrace(const Options &opt, Report &report)
{
    report.opName = "cycles";
    report.rateAlias = "sim_cycles_per_s";
    report.latencyAlias = "cycle_ms";
    // The cycles' own spread is narrow (p98 is within 20% of p50); the
    // top percent of ~3 ms cycles are host preemptions, which cluster
    // in bursts and do not repeat across runs of one seed. p90 is the
    // highest level that measures the simulator rather than the host.
    report.tailLevel = 90.0;

    const PlatformConfig cfg = longtraceConfig(opt.seed);
    std::unique_ptr<Machine> machine;
    std::unique_ptr<TraceSource> trace;
    report.setupSeconds = medianSetupSeconds(kSetupReps, [&] {
        evaluateFig6aAnchors(report);
        machine.reset();
        machine = std::make_unique<Machine>(cfg);
        trace = std::make_unique<TraceSource>(cfg.workload);
        trace->at(kChunkCycles - 1);
    });

    Platform &p = *machine->platform;
    StandbySimulator &sim = *machine->sim;
    const MeeStats meeBefore = p.mee->statistics();

    OpMeter meter(kBlockCycles);
    std::vector<std::uint64_t> digests;
    RunProgress progress = sim.beginRun();
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t minCycles = opt.trace ? kPrefixCycles : kMinCycles;
    const Clock::time_point loopStart = Clock::now();
    for (std::size_t i = 0;
         i < minCycles || secondsSince(loopStart) < budget; ++i) {
        const StandbyCycle &cycle = trace->at(i);
        const Clock::time_point start = Clock::now();
        sim.stepCycle(progress, cycle);
        meter.add(secondsSince(start));
        digests.push_back(cycleDigest(p, sim.flows()));
        report.check(sim.flows().lastCycle().contextIntact,
                     "context not intact at cycle " + std::to_string(i));
    }
    const StandbyResult result = sim.finishRun(progress);
    report.meter = meter;
    if (p.mee->statistics().authFailures != meeBefore.authFailures)
        report.fail("MEE authentication failures during the run");

    Digest prefix;
    for (std::size_t i = 0; i < kPrefixCycles; ++i)
        prefix.add(digests[i]);
    report.digest = prefix.hex();

    if (!opt.trace) {
        // Determinism recheck: replay the prefix on a fresh platform.
        Machine fresh(cfg);
        RunProgress again = fresh.sim->beginRun();
        for (std::size_t i = 0; i < kPrefixCycles; ++i) {
            fresh.sim->stepCycle(again, trace->at(i));
            if (cycleDigest(*fresh.platform, fresh.sim->flows()) !=
                digests[i]) {
                report.fail("replayed cycle " + std::to_string(i) +
                            " differs from the first run");
                break;
            }
        }
        return;
    }

    // Traced replay of the same cycles on a fresh platform.
    Machine fresh(cfg);
    Platform &fp = *fresh.platform;
    Tracer tr;
    LayerCounts lc;
    lc.ops = static_cast<double>(digests.size());
    RunProgress traced = fresh.sim->beginRun();
    double tracedSeconds = 0.0;
    for (std::size_t i = 0; i < digests.size(); ++i) {
        const MeeStats before = fp.mee->statistics();
        const Clock::time_point start = Clock::now();
        tracedStep(fp, fresh.sim->flows(), traced, trace->at(i), tr, lc);
        tracedSeconds += secondsSince(start);
        addMeeDelta(lc.mee, before, fp.mee->statistics());
        if (cycleDigest(fp, fresh.sim->flows()) != digests[i])
            report.fail("traced replay of cycle " + std::to_string(i) +
                        " differs from stepCycle");
    }
    const StandbyResult tracedResult = fresh.sim->finishRun(traced);
    if (resultDigest(fp, tracedResult) != resultDigest(p, result))
        report.fail("traced replay energy differs from the stepCycle run");
    if (lc.mee.authFailures != 0)
        report.fail("MEE authentication failures in the traced replay");

    lc.coverage = tr.covered() / tracedSeconds;
    lc.overheadRatio = tracedSeconds / meter.seconds();
    emitPerLayer(tr, lc, report);
}

} // namespace perfbench
