/**
 * @file
 * sweep_cold: what every new design point costs. The five Fig. 6(a)
 * configurations, then seeded, all-distinct design points that vary the
 * technique set, the core frequency and the LLC dirty fraction. Each
 * point is priced with measureCycleProfile() (a profile-cache miss: a
 * platform build, a warm-up, a snapshot fork and one entry/exit cycle)
 * and then findBreakeven() against the baseline, on one worker.
 *
 * Technique sets rotate in a fixed order so every block of points has
 * the same mix: two of the six sets move the full context through the
 * MEE, which is what the slow tail of the point latency measures.
 */

#include <memory>
#include <optional>

#include "core/breakeven.hh"
#include "core/checkpoint.hh"
#include "core/profile_cache.hh"
#include "harness.hh"
#include "platform/platform.hh"
#include "sim/random.hh"

namespace perfbench
{

using namespace odrips;

namespace
{

/** Points folded into the run's digest (and re-priced by the
 * determinism recheck). */
constexpr std::size_t kPrefixPoints = 64;
/** Fewest points in an untraced run: a p99 with ten samples beyond. */
constexpr std::size_t kMinPoints = 1000;
/** Points per throughput block: ten rounds of the technique mix. */
constexpr std::size_t kBlockPoints = 60;

struct DesignPoint
{
    PlatformConfig cfg;
    TechniqueSet techniques;
};

DesignPoint
designPoint(std::uint64_t seed, std::size_t index)
{
    static const TechniqueSet kFig6a[] = {
        TechniqueSet::baseline(), TechniqueSet::wakeupOffOnly(),
        TechniqueSet::aonIoGated(), TechniqueSet::ctxSgxDram(),
        TechniqueSet::odrips()};
    static const TechniqueSet kMix[] = {
        TechniqueSet::baseline(),   TechniqueSet::wakeupOffOnly(),
        TechniqueSet::aonIoGated(), TechniqueSet::ctxSgxDram(),
        TechniqueSet::odrips(),     TechniqueSet::odripsMram()};
    constexpr std::size_t kFig6aCount = std::size(kFig6a);

    DesignPoint point{skylakeConfig(), {}};
    if (index < kFig6aCount) {
        point.techniques = kFig6a[index];
        return point;
    }
    point.techniques = kMix[(index - kFig6aCount) % std::size(kMix)];
    Rng rng = Rng(seed).fork(index);
    point.cfg.coreFrequencyHz = rng.uniform(0.4e9, 2.0e9);
    point.cfg.llcDirtyFraction = rng.uniform(0.05, 0.5);
    return point;
}

BreakevenResult
priceBreakeven(const PlatformConfig &cfg, const CyclePowerProfile &profile,
               const CyclePowerProfile &baseline)
{
    BreakevenSweep sweep;
    sweep.scalableFraction = cfg.workload.scalableFraction;
    exec::ExecPolicy serial;
    serial.jobs = 1;
    return findBreakeven(profile, baseline, sweep, 24, serial);
}

std::uint64_t
digestOf(const CyclePowerProfile &p, const BreakevenResult &be)
{
    Digest d;
    d.add(p.idlePower);
    d.add(p.activePower);
    d.add(p.stallPower);
    d.add(static_cast<std::uint64_t>(p.entryLatency));
    d.add(static_cast<std::uint64_t>(p.exitLatency));
    d.add(p.entryEnergy);
    d.add(p.exitEnergy);
    d.add(static_cast<std::uint64_t>(p.contextSaveLatency));
    d.add(static_cast<std::uint64_t>(p.contextRestoreLatency));
    d.add(p.contextIntact);
    d.add(static_cast<std::uint64_t>(be.breakEvenDwell));
    d.add(static_cast<std::uint64_t>(be.analyticBreakEven));
    for (const auto &[dwell, tech, base] : be.curve) {
        d.add(static_cast<std::uint64_t>(dwell));
        d.add(tech);
        d.add(base);
    }
    return d.value();
}

/**
 * measureCycleProfileUncached() replayed call by call with a span
 * around each step. Its result must equal the library's bit for bit.
 */
CyclePowerProfile
tracedProfile(const DesignPoint &point, Tracer &tr, LayerCounts &lc)
{
    const bool ctx = point.techniques.contextOffload;
    auto platform = tr.span("platform.build", [&] {
        return std::make_unique<Platform>(point.cfg);
    });
    auto sim = tr.span("core.sim_build", [&] {
        return std::make_unique<StandbySimulator>(*platform,
                                                  point.techniques);
    });
    eventSpan(tr, lc, platform->eq, "sim.settle", [&] {
        platform->eq.run(platform->eq.now() + 10 * oneUs);
    });

    Platform *target = platform.get();
    StandbyFlows *flows = &sim->flows();
    std::optional<Snapshot> snapshot;
    ForkedSimulator child;
    if (checkpointSweepsEnabled()) {
        snapshot.emplace(tr.span("core.snapshot_capture",
                                 [&] { return Snapshot::capture(*sim); }));
        child = tr.span("core.snapshot_fork",
                        [&] { return snapshot->fork(); });
        target = child.platform.get();
        flows = &child.simulator->flows();
    }

    EventQueue &eq = target->eq;
    EnergyAccountant &acc = target->accountant;
    const MeeStats meeBefore = target->mee->statistics();
    CyclePowerProfile profile;

    acc.reset(eq.now());
    const FlowResult entry =
        eventSpan(tr, lc, eq,
                  ctx ? "flows.enter_idle.ctx" : "flows.enter_idle.noctx",
                  [&] { return flows->enterIdle(); });
    acc.integrateTo(eq.now());
    profile.entryLatency = entry.latency();
    profile.entryEnergy = acc.batteryEnergy().joules();
    profile.idlePower = target->batteryPower().watts();

    eventSpan(tr, lc, eq, "sim.eq_run.idle",
              [&] { eq.run(eq.now() + oneMs); });

    acc.reset(eq.now());
    const FlowResult exit =
        eventSpan(tr, lc, eq,
                  ctx ? "flows.exit_idle.ctx" : "flows.exit_idle.noctx",
                  [&] { return flows->exitIdle(); });
    acc.integrateTo(eq.now());
    profile.exitLatency = exit.latency();
    profile.exitEnergy = acc.batteryEnergy().joules();
    profile.activePower = target->batteryPower().watts();

    Processor &proc = target->processor;
    proc.coresGfx.setPower(proc.stallPower(), eq.now());
    profile.stallPower = target->batteryPower().watts();
    proc.applyActivePower(eq.now());

    const CycleRecord &rec = flows->lastCycle();
    if (rec.contextSave)
        profile.contextSaveLatency = rec.contextSave->latency;
    if (rec.contextRestore)
        profile.contextRestoreLatency = rec.contextRestore->latency;
    profile.contextIntact = rec.contextIntact;
    addMeeDelta(lc.mee, meeBefore, target->mee->statistics());

    tr.span("platform.teardown", [&] {
        child = ForkedSimulator{};
        snapshot.reset();
        sim.reset();
        platform.reset();
    });
    return profile;
}

} // namespace

void
runSweepCold(const Options &opt, Report &report)
{
    report.opName = "points";
    report.rateAlias = "points_per_s";
    report.latencyAlias = "point_ms";
    // p99 lands among the context-offload points (a third of the mix).
    report.tailLevel = 99.0;

    CyclePowerProfile baseline;
    report.setupSeconds = medianSetupSeconds(
        kSetupReps, [&] { baseline = evaluateFig6aAnchors(report); });

    // Cold: the Fig. 6(a) points below must miss like every other one.
    CycleProfileCache &cache = CycleProfileCache::global();
    cache.clear();

    OpMeter meter(kBlockPoints);
    std::vector<std::uint64_t> digests;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t minPoints = opt.trace ? kPrefixPoints : kMinPoints;
    const Clock::time_point loopStart = Clock::now();
    for (std::size_t i = 0;
         i < minPoints || secondsSince(loopStart) < budget; ++i) {
        const DesignPoint point = designPoint(opt.seed, i);
        const Clock::time_point start = Clock::now();
        const CyclePowerProfile profile =
            measureCycleProfile(point.cfg, point.techniques);
        const BreakevenResult be =
            priceBreakeven(point.cfg, profile, baseline);
        meter.add(secondsSince(start));
        digests.push_back(digestOf(profile, be));
        report.check(profile.contextIntact,
                     "context not intact at point " + std::to_string(i));
    }
    const CycleProfileCacheStats cacheStats = cache.statistics();
    if (cacheStats.hits != 0 || cacheStats.misses != digests.size())
        report.fail("cold sweep was not all cache misses (" +
                    std::to_string(cacheStats.hits) + " hits)");
    report.meter = meter;

    Digest prefix;
    for (std::size_t i = 0; i < kPrefixPoints; ++i)
        prefix.add(digests[i]);
    report.digest = prefix.hex();

    if (!opt.trace) {
        // Determinism recheck: re-price the prefix without the cache.
        for (std::size_t i = 0; i < kPrefixPoints; ++i) {
            const DesignPoint point = designPoint(opt.seed, i);
            const CyclePowerProfile profile =
                measureCycleProfileUncached(point.cfg, point.techniques);
            if (digestOf(profile, priceBreakeven(point.cfg, profile,
                                                 baseline)) != digests[i])
                report.fail("re-priced point " + std::to_string(i) +
                            " differs from its first pricing");
        }
        return;
    }

    // Traced replay of the same points, call by call.
    Tracer tr;
    LayerCounts lc;
    lc.ops = static_cast<double>(digests.size());
    lc.cacheHitsPerOp = static_cast<double>(cacheStats.hits) / lc.ops;
    lc.cacheMissesPerOp = static_cast<double>(cacheStats.misses) / lc.ops;
    double tracedSeconds = 0.0;
    for (std::size_t i = 0; i < digests.size(); ++i) {
        const DesignPoint point = designPoint(opt.seed, i);
        const std::uint64_t failuresBefore = lc.mee.authFailures;
        const Clock::time_point start = Clock::now();
        const CyclePowerProfile profile = tracedProfile(point, tr, lc);
        const BreakevenResult be = tr.span("core.breakeven", [&] {
            return priceBreakeven(point.cfg, profile, baseline);
        });
        tracedSeconds += secondsSince(start);
        if (digestOf(profile, be) != digests[i])
            report.fail("traced replay of point " + std::to_string(i) +
                        " differs from measureCycleProfile");
        if (lc.mee.authFailures != failuresBefore)
            report.fail("MEE authentication failure at point " +
                        std::to_string(i));
    }
    lc.coverage = tr.covered() / tracedSeconds;
    lc.overheadRatio = tracedSeconds / meter.seconds();
    emitPerLayer(tr, lc, report);
}

} // namespace perfbench
