/**
 * @file
 * fleet_day: fleet::runCampaign() of the mixed reference population,
 * one campaign of kDeviceDays device-days per op, on two workers. It
 * loads the fleet hot loop, the day-cycle generator and the worker
 * pool, and it bypasses the MEE and the profile measurement almost
 * entirely (profiles are cache hits after set-up; only every 512th
 * device replays two cycles on a simulator). So the MEE and fleet
 * optimisations each have a workload where they should move nothing.
 */

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/profile_cache.hh"
#include "fleet/campaign.hh"
#include "harness.hh"
#include "sim/random.hh"
#include "stats/sweep_meter.hh"

namespace perfbench
{

using namespace odrips;

namespace
{

/** Device-days per campaign (one op). */
constexpr std::uint64_t kDeviceDays = 2048;
/** Campaigns folded into the run's digest (and rerun by the
 * determinism recheck). */
constexpr std::size_t kPrefixCampaigns = 2;
/** Fewest campaigns in an untraced run: a p90 with ten samples
 * beyond. */
constexpr std::size_t kMinCampaigns = 100;
/** Every n-th device of a traced campaign also has its day streamed
 * through DayCycleGenerator under a span of its own. */
constexpr std::uint64_t kDayGenStride = 64;

fleet::CampaignConfig
campaignConfig(std::uint64_t seed, std::size_t index,
               std::uint64_t device_days)
{
    fleet::CampaignConfig cfg;
    cfg.base = skylakeConfig();
    cfg.population = FleetPopulation::mixedReference();
    cfg.deviceDays = device_days;
    cfg.seed = Rng(seed).fork(index).next64();
    return cfg;
}

std::uint64_t
campaignDigest(const fleet::CampaignResult &r)
{
    Digest d;
    d.add(r.devices);
    d.add(r.meanPowerWatts);
    d.add(r.minPowerWatts);
    d.add(r.maxPowerWatts);
    for (const fleet::CampaignPercentiles *p :
         {&r.powerWatts, &r.daysOfStandby}) {
        d.add(p->p1);
        d.add(p->p10);
        d.add(p->p50);
        d.add(p->p90);
        d.add(p->p99);
    }
    d.add(r.telemetry.cycles);
    d.add(r.telemetry.coalescedWakes);
    d.add(r.telemetry.simSampledDevices);
    d.add(r.telemetry.simulatedCycles);
    return d.value();
}

bool
campaignSane(const fleet::CampaignResult &r)
{
    const fleet::CampaignPercentiles &p = r.powerWatts;
    return r.devices == kDeviceDays && std::isfinite(r.meanPowerWatts) &&
           r.minPowerWatts > 0.0 && r.minPowerWatts <= p.p1 &&
           p.p1 <= p.p50 && p.p50 <= p.p99 && p.p99 <= r.maxPowerWatts &&
           r.telemetry.profileMeasurements == 0;
}

/** Wall seconds of the sweep named @p name in the registry. */
double
sweepSeconds(const std::vector<stats::SweepRecord> &records,
             const char *name)
{
    double sum = 0.0;
    for (const stats::SweepRecord &rec : records)
        if (rec.name == name)
            sum += rec.wallSeconds;
    return sum;
}

} // namespace

void
runFleetDay(const Options &opt, Report &report)
{
    report.opName = "campaigns";
    report.rateAlias = "device_days_per_s";
    report.latencyAlias = "campaign_ms";
    report.tailLevel = 90.0;

    // Set-up pays the fixed costs: the three class profiles (cache
    // misses), the checkpoint-pool prime and the calibration.
    CycleProfileCache &cache = CycleProfileCache::global();
    report.setupSeconds = medianSetupSeconds(kSetupReps, [&] {
        evaluateFig6aAnchors(report);
        cache.clear();
        fleet::runCampaign(campaignConfig(opt.seed, ~std::size_t{0}, 64));
    });

    const CycleProfileCacheStats cacheBefore = cache.statistics();
    OpMeter meter(1);
    std::vector<std::uint64_t> digests;
    const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
    const std::size_t minCampaigns =
        opt.trace ? kPrefixCampaigns : kMinCampaigns;
    const Clock::time_point loopStart = Clock::now();
    for (std::size_t i = 0;
         i < minCampaigns || secondsSince(loopStart) < budget; ++i) {
        const fleet::CampaignConfig cfg =
            campaignConfig(opt.seed, i, kDeviceDays);
        const Clock::time_point start = Clock::now();
        const fleet::CampaignResult r = fleet::runCampaign(cfg);
        meter.add(secondsSince(start), static_cast<double>(kDeviceDays));
        digests.push_back(campaignDigest(r));
        report.check(campaignSane(r),
                     "campaign " + std::to_string(i) + " is inconsistent");
    }
    const CycleProfileCacheStats cacheAfter = cache.statistics();
    report.meter = meter;

    Digest prefix;
    for (std::size_t i = 0; i < kPrefixCampaigns; ++i)
        prefix.add(digests[i]);
    report.digest = prefix.hex();

    if (!opt.trace) {
        for (std::size_t i = 0; i < kPrefixCampaigns; ++i) {
            const fleet::CampaignResult r = fleet::runCampaign(
                campaignConfig(opt.seed, i, kDeviceDays));
            if (campaignDigest(r) != digests[i])
                report.fail("rerun of campaign " + std::to_string(i) +
                            " differs from the first run");
        }
        return;
    }

    // Traced replay of the same campaigns. The campaign phases are
    // timed by the sweep engine's own meters (stats::sweepRecords());
    // the day-cycle generator is replayed on sampled devices.
    Tracer tr;
    LayerCounts lc;
    lc.ops = static_cast<double>(digests.size());
    lc.cacheHitsPerOp =
        static_cast<double>(cacheAfter.hits - cacheBefore.hits) / lc.ops;
    lc.cacheMissesPerOp =
        static_cast<double>(cacheAfter.misses - cacheBefore.misses) / lc.ops;
    std::vector<double> prime, calibrate, hotLoop, imbalance;
    double cycles = 0.0, simulated = 0.0, restores = 0.0;
    double dayGenCycles = 0.0;
    double tracedSeconds = 0.0;
    double tracedCampaignSeconds = 0.0;
    for (std::size_t i = 0; i < digests.size(); ++i) {
        const fleet::CampaignConfig cfg =
            campaignConfig(opt.seed, i, kDeviceDays);
        stats::clearSweepRecords();
        const Clock::time_point start = Clock::now();
        const fleet::CampaignResult r = fleet::runCampaign(cfg);
        const double campaignSeconds = secondsSince(start);
        const std::vector<stats::SweepRecord> records =
            stats::sweepRecords();
        prime.push_back(sweepSeconds(records, "fleet-pool-prime"));
        calibrate.push_back(sweepSeconds(records, "fleet-calibrate"));
        hotLoop.push_back(sweepSeconds(records, "fleet-campaign"));
        tr.record("fleet.pool_prime", prime.back());
        tr.record("fleet.calibrate", calibrate.back());
        tr.record("fleet.hot_loop", hotLoop.back());
        if (campaignDigest(r) != digests[i])
            report.fail("traced rerun of campaign " + std::to_string(i) +
                        " differs from the first run");

        const fleet::CampaignTelemetry &tel = r.telemetry;
        cycles += static_cast<double>(tel.cycles);
        simulated += static_cast<double>(tel.simulatedCycles);
        restores += static_cast<double>(tel.pool.restores);
        // Slot 0 is the non-worker caller; the rest are the workers.
        const std::vector<std::uint64_t> &slots = tel.devicesPerWorker;
        if (slots.size() > 1) {
            const double mean =
                static_cast<double>(std::accumulate(
                    slots.begin() + 1, slots.end(), std::uint64_t{0})) /
                static_cast<double>(slots.size() - 1);
            imbalance.push_back(
                static_cast<double>(
                    *std::max_element(slots.begin() + 1, slots.end())) /
                mean);
        }

        const Clock::time_point genStart = Clock::now();
        for (std::uint64_t id = 0; id < cfg.deviceDays; id += kDayGenStride) {
            const DeviceClass &dc =
                cfg.population.classes[cfg.population.classForDevice(id)];
            DayCycleGenerator gen(dc.profile, Rng(cfg.seed).fork(id),
                                  cfg.daySeconds);
            StandbyCycle cycle;
            std::size_t phase = 0;
            while (gen.next(cycle, phase))
                dayGenCycles += 1.0;
        }
        const double genSeconds = secondsSince(genStart);
        tr.record("workload.day_gen", genSeconds);
        tracedSeconds += campaignSeconds + genSeconds;
        tracedCampaignSeconds += campaignSeconds;
    }

    lc.poolPrimeSeconds = median(prime);
    lc.calibrateSeconds = median(calibrate);
    lc.hotLoopSeconds = median(hotLoop);
    lc.cyclesPerOp = cycles / lc.ops;
    lc.simulatedCyclesPerOp = simulated / lc.ops;
    lc.poolRestoresPerOp = restores / lc.ops;
    lc.nsPerCycle = cycles > 0 ? 1e9 * tr.total("fleet.hot_loop") / cycles
                               : 0.0;
    lc.dayGenNsPerCycle =
        dayGenCycles > 0 ? 1e9 * tr.total("workload.day_gen") / dayGenCycles
                         : 0.0;
    lc.workerImbalance = median(imbalance);
    lc.coverage = tr.covered() / tracedSeconds;
    // The sampled day-cycle replay is extra work, not tracing overhead.
    lc.overheadRatio = tracedCampaignSeconds / meter.seconds();
    emitPerLayer(tr, lc, report);
}

} // namespace perfbench
