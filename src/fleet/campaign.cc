#include "fleet/campaign.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "core/profile.hh"
#include "core/profile_cache.hh"
#include "sim/logging.hh"
#include "sim/ticks.hh"
#include "stats/accumulator.hh"

namespace odrips::fleet
{

namespace
{

/** Hard cap on replayed cycles per sampled device (stack storage). */
constexpr std::uint32_t kMaxSampleCycles = 8;
/** Hard cap on batch partials retained (the O(stats) bound). */
constexpr std::uint64_t kMaxBatches = 1024;
/** Cold mode recomputes per-phase factors on the stack. */
constexpr std::size_t kMaxColdPhases = 16;

/** Mergeable per-batch aggregation state. */
struct BatchPartial
{
    stats::KahanSum powerSum;
    stats::MinMax power;
    std::uint64_t devices = 0;
    std::uint64_t cycles = 0;
    std::uint64_t coalescedWakes = 0;
    std::uint64_t simSampledDevices = 0;
    std::uint64_t simulatedCycles = 0;
    std::uint64_t profileMeasurements = 0;
};

/** Worker-slot index: 0 for the non-worker caller, worker + 1 else. */
std::size_t
slotIndex()
{
    const std::size_t worker = exec::ThreadPool::currentWorkerIndex();
    return worker == exec::ThreadPool::kNoWorker ? 0 : worker + 1;
}

/** Upper bound on concurrent workers any sweep under @p policy can
 * use, counting nested-inline and default-pool execution. */
std::size_t
slotCount(const exec::ExecPolicy &policy)
{
    unsigned workers = policy.jobs;
    if (policy.pool != nullptr)
        workers = std::max(workers, policy.pool->size());
    if (exec::ThreadPool *cur = exec::ThreadPool::current())
        workers = std::max(workers, cur->size());
    workers = std::max(workers, exec::defaultJobs());
    if (exec::ThreadPool *def = exec::defaultPool())
        workers = std::max(workers, def->size());
    return static_cast<std::size_t>(workers) + 1;
}

/** Battery energy of one cycle from Eq. 1 components: entry + exit
 * transition energies plus the three residency segments. */
double
cycleEnergy(const CyclePowerProfile &profile, const StandbyCycle &cycle,
            double core_hz)
{
    const double idle_s = ticksToSeconds(cycle.idleDwell);
    const double cpu_s = static_cast<double>(cycle.cpuCycles) / core_hz;
    const double stall_s = ticksToSeconds(cycle.stallTime);
    return profile.entryEnergy + profile.exitEnergy +
           profile.idlePower * idle_s + profile.activePower * cpu_s +
           profile.stallPower * stall_s;
}

/**
 * Sim-vs-analytic calibration for one (class, phase) key: run the
 * fixed calibration trace on @p sim (already in the key's warm state)
 * and return measured energy / analytic energy. Called identically by
 * the prologue and by every naive-cold device, so the two modes
 * produce bit-identical factors.
 */
double
calibrateFactor(StandbySimulator &sim, const CyclePowerProfile &profile,
                const PhaseSpec &spec, const CampaignConfig &cfg)
{
    const StandbyTrace trace = StandbyWorkloadGenerator::fixed(
        cfg.calibrationCycles,
        secondsToTicks(spec.heartbeatPeriodSeconds),
        secondsToTicks(0.5 *
                       (spec.activeMinSeconds + spec.activeMaxSeconds)),
        spec.scalableFraction, DayCycleGenerator::kReferenceHz);
    const StandbyResult r = sim.run(trace);
    const double measured =
        r.averageBatteryPower * ticksToSeconds(r.simulatedTime);
    stats::KahanSum analytic;
    for (const StandbyCycle &cycle : trace.cycles)
        analytic.add(cycleEnergy(profile, cycle,
                                 cfg.base.coreFrequencyHz));
    return analytic.value() > 0.0 ? measured / analytic.value() : 1.0;
}

/**
 * Simulate one device-day into @p part / @p sketch.
 *
 * The cycle loop below is the campaign's per-device hot path: it must
 * stay free of heap allocation and unordered-container iteration
 * (enforced by the fleet-hotloop lint rule via the annotation).
 */
// fleet: hotloop
void
processDevice(const CampaignConfig &cfg, const Rng &device_base,
              std::uint64_t device_id,
              const std::vector<CyclePowerProfile> &profiles,
              const std::vector<std::vector<double>> &factors,
              CheckpointPool &pool, BatchPartial &part,
              stats::QuantileSketch &sketch)
{
    const std::size_t cls = cfg.population.classForDevice(device_id);
    const DeviceClass &dc = cfg.population.classes[cls];

    CyclePowerProfile prof;
    double coldFactors[kMaxColdPhases];
    const double *factor = nullptr;
    if (cfg.naiveCold) {
        // The naive foil: every device re-pays the profile measurement
        // and a fresh build + warm-up + calibration per phase. The
        // recomputation is the prologue's, so the output is identical.
        prof = measureCycleProfileUncached(cfg.base, dc.techniques);
        ++part.profileMeasurements;
        const std::size_t slot = slotIndex();
        const std::size_t phases = dc.profile.phases.size();
        for (std::size_t p = 0; p < phases; ++p) {
            StandbySimulator &sim = pool.acquire(slot, cls, p);
            coldFactors[p] = calibrateFactor(
                sim, prof, dc.profile.phases[p], cfg);
        }
        factor = coldFactors;
    } else {
        prof = profiles[cls];
        factor = factors[cls].data();
    }

    const bool sampled = cfg.simSampleEvery != 0 &&
                         device_id % cfg.simSampleEvery == 0 &&
                         cfg.simSampleCycles > 0;
    StandbyCycle capturedCycle[kMaxSampleCycles];
    std::size_t capturedPhase[kMaxSampleCycles];
    std::uint32_t captured = 0;
    const std::uint32_t wantCaptured =
        std::min(cfg.simSampleCycles, kMaxSampleCycles);

    DayCycleGenerator gen(dc.profile, device_base.fork(device_id),
                          cfg.daySeconds);
    stats::KahanSum energy;
    std::uint64_t cycles = 0;
    StandbyCycle cycle;
    std::size_t phase = 0;
    while (gen.next(cycle, phase)) {
        ++cycles;
        energy.add(cycleEnergy(prof, cycle, cfg.base.coreFrequencyHz) *
                   factor[phase]);
        if (sampled && captured < wantCaptured) {
            capturedCycle[captured] = cycle;
            capturedPhase[captured] = phase;
            ++captured;
        }
    }
    part.cycles += cycles;
    part.coalescedWakes += gen.coalescedWakes();

    if (sampled && captured > 0) {
        // Replay the captured cycles on a pool-forked simulator and
        // fold the measured-minus-analytic residual into the day.
        StandbySimulator &sim =
            pool.acquire(slotIndex(), cls, capturedPhase[0]);
        RunProgress progress = sim.beginRun();
        for (std::uint32_t i = 0; i < captured; ++i)
            sim.stepCycle(progress, capturedCycle[i]);
        const StandbyResult r = sim.finishRun(progress);
        const double measured =
            r.averageBatteryPower * ticksToSeconds(r.simulatedTime);
        stats::KahanSum analytic;
        for (std::uint32_t i = 0; i < captured; ++i)
            analytic.add(cycleEnergy(prof, capturedCycle[i],
                                     cfg.base.coreFrequencyHz) *
                         factor[capturedPhase[i]]);
        energy.add(measured - analytic.value());
        ++part.simSampledDevices;
        part.simulatedCycles += captured;
    }

    const double dayPower = energy.value() / cfg.daySeconds;
    ++part.devices;
    part.powerSum.add(dayPower);
    part.power.add(dayPower);
    sketch.add(dayPower);
}

double
daysOfStandby(double power_watts, double battery_watt_hours)
{
    return power_watts > 0.0 ? battery_watt_hours / (power_watts * 24.0)
                             : 0.0;
}

} // namespace

CampaignResult
runCampaign(const CampaignConfig &cfg, const exec::ExecPolicy &policy)
{
    CampaignResult out;
    const std::uint64_t n = cfg.deviceDays;
    const std::size_t numClasses = cfg.population.classes.size();
    if (n == 0 || numClasses == 0)
        return out;
    if (cfg.naiveCold) {
        for (const DeviceClass &dc : cfg.population.classes)
            if (dc.profile.phases.size() > kMaxColdPhases)
                fatal("naive-cold campaigns support at most ",
                      kMaxColdPhases, " phases per profile");
    }

    const std::size_t slots = slotCount(policy);

    // Fixed cost 1: one profile per distinct TechniqueSet, through the
    // cache.
    std::vector<CyclePowerProfile> profiles;
    profiles.reserve(numClasses);
    for (const DeviceClass &dc : cfg.population.classes)
        profiles.push_back(measureCycleProfile(cfg.base, dc.techniques));

    // Fixed cost 2: one warm snapshot + calibration factor per
    // (class, phase) key.
    CheckpointPool pool(cfg.base, cfg.population, slots);
    if (!cfg.naiveCold)
        pool.prime(policy);

    std::vector<std::pair<std::size_t, std::size_t>> keyMap;
    for (std::size_t c = 0; c < numClasses; ++c) {
        const std::size_t phases =
            cfg.population.classes[c].profile.phases.size();
        for (std::size_t p = 0; p < phases; ++p)
            keyMap.emplace_back(c, p);
    }
    struct FactorResult
    {
        double factor = 1.0;
    };
    const std::vector<FactorResult> factorPoints = exec::parallelSweep(
        "fleet-calibrate", keyMap.size(),
        [&](const exec::SweepPoint &point) {
            const auto [cls, phase] = keyMap[point.index];
            StandbySimulator &sim =
                pool.acquire(slotIndex(), cls, phase);
            return FactorResult{calibrateFactor(
                sim, profiles[cls],
                cfg.population.classes[cls].profile.phases[phase],
                cfg)};
        },
        policy);
    std::vector<std::vector<double>> factors(numClasses);
    for (std::size_t k = 0; k < keyMap.size(); ++k)
        factors[keyMap[k].first].push_back(factorPoints[k].factor);

    // The device sweep: contiguous batches, each reduced into one
    // partial. The batch count is capped so aggregation state stays
    // O(stats) no matter how many device-days run.
    const std::uint64_t batchSize = std::max<std::uint64_t>(
        1, cfg.batchSize);
    std::uint64_t numBatches =
        std::min((n + batchSize - 1) / batchSize, kMaxBatches);
    const std::uint64_t grain = (n + numBatches - 1) / numBatches;
    numBatches = (n + grain - 1) / grain;

    std::vector<stats::QuantileSketch> sketches(slots);
    std::vector<std::uint64_t> perWorkerDevices(slots, 0);
    const Rng deviceBase(cfg.seed);

    const std::vector<BatchPartial> partials = exec::parallelSweep(
        "fleet-campaign", static_cast<std::size_t>(numBatches),
        [&](const exec::SweepPoint &point) {
            BatchPartial part;
            const std::uint64_t begin =
                static_cast<std::uint64_t>(point.index) * grain;
            const std::uint64_t end = std::min(n, begin + grain);
            const std::size_t slot = slotIndex();
            stats::QuantileSketch &sketch = sketches[slot];
            for (std::uint64_t id = begin; id < end; ++id)
                processDevice(cfg, deviceBase, id, profiles, factors,
                              pool, part, sketch);
            perWorkerDevices[slot] += end - begin;
            return part;
        },
        policy, cfg.seed);

    // Deterministic reduction: batch partials in index order, worker
    // sketches in slot order (bucket adds commute, so which worker
    // handled which batch cannot matter).
    stats::KahanSum powerSum;
    stats::MinMax power;
    CampaignTelemetry &tel = out.telemetry;
    for (const BatchPartial &part : partials) {
        powerSum.merge(part.powerSum);
        power.merge(part.power);
        tel.devices += part.devices;
        tel.cycles += part.cycles;
        tel.coalescedWakes += part.coalescedWakes;
        tel.simSampledDevices += part.simSampledDevices;
        tel.simulatedCycles += part.simulatedCycles;
        tel.profileMeasurements += part.profileMeasurements;
    }
    for (const stats::QuantileSketch &sketch : sketches)
        out.powerSketch.merge(sketch);

    out.devices = tel.devices;
    out.meanPowerWatts =
        tel.devices > 0
            ? powerSum.value() / static_cast<double>(tel.devices)
            : 0.0;
    out.minPowerWatts = power.minimum;
    out.maxPowerWatts = power.maximum;
    out.powerWatts.p1 = out.powerSketch.quantile(0.01);
    out.powerWatts.p10 = out.powerSketch.quantile(0.10);
    out.powerWatts.p50 = out.powerSketch.quantile(0.50);
    out.powerWatts.p90 = out.powerSketch.quantile(0.90);
    out.powerWatts.p99 = out.powerSketch.quantile(0.99);
    // Best-lasting 1% of devices are the lowest-power 1%.
    out.daysOfStandby.p1 =
        daysOfStandby(out.powerWatts.p99, cfg.batteryWattHours);
    out.daysOfStandby.p10 =
        daysOfStandby(out.powerWatts.p90, cfg.batteryWattHours);
    out.daysOfStandby.p50 =
        daysOfStandby(out.powerWatts.p50, cfg.batteryWattHours);
    out.daysOfStandby.p90 =
        daysOfStandby(out.powerWatts.p10, cfg.batteryWattHours);
    out.daysOfStandby.p99 =
        daysOfStandby(out.powerWatts.p1, cfg.batteryWattHours);

    tel.batches = numBatches;
    tel.pool = pool.stats();
    const CycleProfileCacheStats cacheStats =
        CycleProfileCache::global().statistics();
    tel.cacheHits = cacheStats.hits;
    tel.devicesPerWorker = perWorkerDevices;
    tel.aggregationBytes =
        static_cast<std::uint64_t>(slots) *
            stats::QuantileSketch::stateBytes() +
        numBatches * sizeof(BatchPartial) +
        static_cast<std::uint64_t>(slots) * sizeof(std::uint64_t);
    return out;
}

void
printCampaignReport(std::ostream &os, const CampaignConfig &cfg,
                    const CampaignResult &result)
{
    const auto mw = [](double watts) { return watts * 1e3; };
    os << "== fleet campaign ==\n";
    os << "device-days     : " << result.devices << "\n";
    os << "classes         :";
    for (const DeviceClass &dc : cfg.population.classes)
        os << " " << dc.profile.name << "(" << dc.techniques.label()
           << ")";
    os << "\n";
    os << "cycles          : " << result.telemetry.cycles
       << " (coalesced wakes absorbed: "
       << result.telemetry.coalescedWakes << ")\n";
    os << "sim-sampled     : " << result.telemetry.simSampledDevices
       << " devices, " << result.telemetry.simulatedCycles
       << " cycles\n";
    os << std::fixed << std::setprecision(6);
    os << "mean power      : " << mw(result.meanPowerWatts) << " mW\n";
    os << "min / max power : " << mw(result.minPowerWatts) << " / "
       << mw(result.maxPowerWatts) << " mW\n";
    os << "percentiles (battery " << std::setprecision(1)
       << cfg.batteryWattHours << " Wh):\n";
    const CampaignPercentiles &p = result.powerWatts;
    const CampaignPercentiles &d = result.daysOfStandby;
    const auto row = [&](const char *name, double watts, double days) {
        os << "  " << name << "  power " << std::setprecision(6)
           << mw(watts) << " mW  standby " << std::setprecision(3)
           << days << " days\n";
    };
    row("p1 ", p.p1, d.p99);
    row("p10", p.p10, d.p90);
    row("p50", p.p50, d.p50);
    row("p90", p.p90, d.p10);
    row("p99", p.p99, d.p1);
}

void
printCampaignTelemetry(std::ostream &os, const CampaignResult &result)
{
    const CampaignTelemetry &tel = result.telemetry;
    os << "fleet-campaign-telemetry: {"
       << "\"devices\": " << tel.devices
       << ", \"cycles\": " << tel.cycles
       << ", \"coalesced_wakes\": " << tel.coalescedWakes
       << ", \"sim_sampled_devices\": " << tel.simSampledDevices
       << ", \"simulated_cycles\": " << tel.simulatedCycles
       << ", \"batches\": " << tel.batches
       << ", \"profile_measurements\": " << tel.profileMeasurements
       << ", \"pool_captures\": " << tel.pool.captures
       << ", \"pool_restores\": " << tel.pool.restores
       << ", \"pool_cold_builds\": " << tel.pool.coldBuilds
       << ", \"pool_arena_builds\": " << tel.pool.arenaBuilds
       << ", \"profile_cache_hits\": " << tel.cacheHits
       << ", \"aggregation_bytes\": " << tel.aggregationBytes
       << ", \"devices_per_worker\": [";
    for (std::size_t i = 0; i < tel.devicesPerWorker.size(); ++i)
        os << (i > 0 ? ", " : "") << tel.devicesPerWorker[i];
    os << "]}\n";
}

} // namespace odrips::fleet
