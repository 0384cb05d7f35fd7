/**
 * @file
 * Fleet campaign engine: population-scale device-day simulation.
 *
 * A campaign evaluates N device-days of a FleetPopulation against one
 * base PlatformConfig and reports the population *distribution* of
 * standby power (p1/p10/p50/p90/p99 and days-of-standby), not just a
 * mean — ROADMAP item 2. Throughput comes from paying every fixed
 * cost once instead of per device:
 *
 *  - cycle power profiles are measured once per distinct TechniqueSet
 *    through the CycleProfileCache, so repeat-profile devices are
 *    cache hits;
 *  - per-(class, phase) sim-vs-analytic calibration factors are
 *    computed once, on simulators served by the warm CheckpointPool;
 *  - the per-device hot loop is purely analytic: stream the day's
 *    cycles from DayCycleGenerator, price each with Eq. 1 components
 *    x the phase's calibration factor, Kahan-accumulate — no
 *    allocation, no simulator;
 *  - every simSampleEvery-th device additionally replays its first
 *    cycles on a pool-forked simulator and folds the measured-minus-
 *    analytic residual into its energy, keeping the cycle-accurate
 *    model in the loop at bounded cost.
 *
 * Aggregation is streaming and O(stats): per-batch KahanSum/MinMax
 * partials (batch count capped, merged in batch-index order) plus
 * per-worker QuantileSketches (merged in slot order; u64 bucket adds
 * commute), so the result is bit-identical across --jobs and
 * ODRIPS_CHECKPOINT/ODRIPS_PROFILE_CACHE settings and no per-device
 * value is ever materialized.
 *
 * naiveCold = true is the reference foil for the bench: every device
 * re-pays the uncached profile measurement and a fresh build + warm-up
 * + calibration per phase — identical output, ~two orders of magnitude
 * slower.
 */

#ifndef ODRIPS_FLEET_CAMPAIGN_HH
#define ODRIPS_FLEET_CAMPAIGN_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "fleet/checkpoint_pool.hh"
#include "stats/quantile_sketch.hh"

namespace odrips::fleet
{

/** What to run. */
struct CampaignConfig
{
    PlatformConfig base;
    FleetPopulation population;

    /** Device-days to simulate (one device = one day). */
    std::uint64_t deviceDays = 10000;
    double daySeconds = 86400.0;

    /** Battery capacity for the days-of-standby transform. */
    double batteryWattHours = 40.0;

    /** Campaign seed: device RNG streams fork from it by device id. */
    std::uint64_t seed = 0x0d219500d219ULL;

    /** Devices per dispatch batch (partial-merge granularity). */
    std::uint64_t batchSize = 64;

    /** Every n-th device replays its first cycles on a forked
     * simulator; 0 disables sim sampling. */
    std::uint64_t simSampleEvery = 512;
    std::uint32_t simSampleCycles = 2;

    /** Fixed cycles per calibration run. */
    std::size_t calibrationCycles = 4;

    /** Reference foil: re-pay every fixed cost per device. */
    bool naiveCold = false;
};

/** p1/p10/p50/p90/p99 of one metric. */
struct CampaignPercentiles
{
    double p1 = 0.0;
    double p10 = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/** Counters proving where the work went (stderr only: several vary
 * with jobs / env toggles, unlike the stdout report). */
struct CampaignTelemetry
{
    std::uint64_t devices = 0;
    std::uint64_t cycles = 0;
    std::uint64_t coalescedWakes = 0;
    std::uint64_t simSampledDevices = 0;
    std::uint64_t simulatedCycles = 0;
    std::uint64_t batches = 0;
    std::uint64_t profileMeasurements = 0; ///< uncached measurements paid
    CheckpointPoolStats pool;
    std::uint64_t cacheHits = 0; ///< CycleProfileCache memo hits
    /** Devices handled per worker slot (slot 0 = non-worker caller). */
    std::vector<std::uint64_t> devicesPerWorker;
    /** Resident bytes of ALL aggregation state (sketches + partials):
     * the O(stats) spot check — independent of deviceDays. */
    std::uint64_t aggregationBytes = 0;
};

/** Campaign output. */
struct CampaignResult
{
    std::uint64_t devices = 0;

    /** Day-average battery power, W. */
    double meanPowerWatts = 0.0;
    double minPowerWatts = 0.0;
    double maxPowerWatts = 0.0;
    CampaignPercentiles powerWatts;

    /** Days of standby on batteryWattHours (pN days <-> p(100-N)
     * power: the best 1% of devices last p1-power long). */
    CampaignPercentiles daysOfStandby;

    stats::QuantileSketch powerSketch;
    CampaignTelemetry telemetry;
};

/** Run a campaign. Deterministic: the result (telemetry aside) is a
 * pure function of @p cfg for any worker count. */
CampaignResult runCampaign(const CampaignConfig &cfg,
                           const exec::ExecPolicy &policy = {});

/** Deterministic human-readable report (safe for stdout gates). */
void printCampaignReport(std::ostream &os, const CampaignConfig &cfg,
                         const CampaignResult &result);

/** One-line JSON telemetry mirror (stderr; varies with jobs/env). */
void printCampaignTelemetry(std::ostream &os,
                            const CampaignResult &result);

} // namespace odrips::fleet

#endif // ODRIPS_FLEET_CAMPAIGN_HH
