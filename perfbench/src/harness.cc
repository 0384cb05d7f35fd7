#include "harness.hh"

#include <algorithm>
#include <cmath>

#include "core/experiment.hh"
#include "core/profile_cache.hh"
#include "platform/config.hh"

namespace perfbench
{

void
Tracer::record(const std::string &name, double seconds)
{
    spans[name].push_back(seconds);
}

double
Tracer::medianMs(const std::string &name) const
{
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : 1e3 * median(it->second);
}

double
Tracer::total(const std::string &name) const
{
    const auto it = spans.find(name);
    double sum = 0.0;
    if (it != spans.end())
        for (const double s : it->second)
            sum += s;
    return sum;
}

double
Tracer::covered() const
{
    double sum = 0.0;
    for (const auto &entry : spans)
        sum += total(entry.first);
    return sum;
}

void
OpMeter::add(double seconds, double work)
{
    latencies.push_back(seconds);
    totalSeconds += seconds;
    totalWork += work;
    blockSeconds += seconds;
    blockWork += work;
    if (++blockOps == perBlock) {
        blockRates.push_back(blockWork / blockSeconds);
        blockSeconds = 0.0;
        blockWork = 0.0;
        blockOps = 0;
    }
}

double
OpMeter::workPerSecond() const
{
    if (!blockRates.empty())
        return median(blockRates);
    return totalSeconds > 0.0 ? totalWork / totalSeconds : 0.0;
}

double
OpMeter::p50Ms() const
{
    return 1e3 * median(latencies);
}

TailPercentile
OpMeter::percentileMs(double percentile) const
{
    TailPercentile t = percentileOf(latencies, percentile);
    t.value *= 1e3;
    return t;
}

TailPercentile
OpMeter::highestTailMs() const
{
    TailPercentile t = tailPercentile(latencies);
    t.value *= 1e3;
    return t;
}

void
Report::check(bool ok, const std::string &why)
{
    ++attempted;
    if (!ok)
        fail(why);
}

void
Report::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

void
addMeeDelta(odrips::MeeStats &sum, const odrips::MeeStats &before,
            const odrips::MeeStats &after)
{
    sum.linesWritten += after.linesWritten - before.linesWritten;
    sum.linesRead += after.linesRead - before.linesRead;
    sum.metadataBytesRead +=
        after.metadataBytesRead - before.metadataBytesRead;
    sum.metadataBytesWritten +=
        after.metadataBytesWritten - before.metadataBytesWritten;
    sum.cacheHits += after.cacheHits - before.cacheHits;
    sum.cacheMisses += after.cacheMisses - before.cacheMisses;
    sum.authFailures += after.authFailures - before.authFailures;
}

void
emitPerLayer(const Tracer &tr, const LayerCounts &c, Report &report)
{
    const auto perOp = [&](double v) { return c.ops > 0 ? v / c.ops : 0.0; };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const double metaAccesses = u(c.mee.cacheHits + c.mee.cacheMisses);
    report.perLayer = {
        {"platform.build_ms", tr.medianMs("platform.build"), "ms"},
        {"core.sim_build_ms", tr.medianMs("core.sim_build"), "ms"},
        {"core.snapshot_capture_ms", tr.medianMs("core.snapshot_capture"),
         "ms"},
        {"core.snapshot_fork_ms", tr.medianMs("core.snapshot_fork"), "ms"},
        {"flows.enter_idle_ms.ctx", tr.medianMs("flows.enter_idle.ctx"),
         "ms"},
        {"flows.enter_idle_ms.noctx",
         tr.medianMs("flows.enter_idle.noctx"), "ms"},
        {"flows.exit_idle_ms.ctx", tr.medianMs("flows.exit_idle.ctx"), "ms"},
        {"flows.exit_idle_ms.noctx", tr.medianMs("flows.exit_idle.noctx"),
         "ms"},
        {"security.mee_lines_written", perOp(u(c.mee.linesWritten)),
         "count"},
        {"security.mee_lines_read", perOp(u(c.mee.linesRead)), "count"},
        {"security.mee_meta_hit_ratio",
         metaAccesses > 0 ? u(c.mee.cacheHits) / metaAccesses : 0.0,
         "ratio"},
        {"security.mee_meta_bytes",
         perOp(u(c.mee.metadataBytesRead + c.mee.metadataBytesWritten)),
         "B"},
        {"security.mee_auth_failures", u(c.mee.authFailures), "count"},
        {"sim.eq_run_ms.idle", tr.medianMs("sim.eq_run.idle"), "ms"},
        {"sim.eq_run_ms.active", tr.medianMs("sim.eq_run.active"), "ms"},
        {"sim.events", perOp(u(c.events)), "count"},
        {"sim.host_us_per_event",
         c.events > 0 ? 1e6 * c.eventSeconds / u(c.events) : 0.0, "us"},
        {"platform.context_touch_ms", tr.medianMs("platform.context_touch"),
         "ms"},
        {"core.breakeven_ms", tr.medianMs("core.breakeven"), "ms"},
        {"core.profile_cache_hits", c.cacheHitsPerOp, "count"},
        {"core.profile_cache_misses", c.cacheMissesPerOp, "count"},
        {"fleet.pool_prime_s", c.poolPrimeSeconds, "s"},
        {"fleet.calibrate_s", c.calibrateSeconds, "s"},
        {"fleet.hot_loop_s", c.hotLoopSeconds, "s"},
        {"fleet.ns_per_cycle", c.nsPerCycle, "ns"},
        {"workload.day_gen_ns_per_cycle", c.dayGenNsPerCycle, "ns"},
        {"fleet.cycles", c.cyclesPerOp, "count"},
        {"fleet.simulated_cycles", c.simulatedCyclesPerOp, "count"},
        {"fleet.pool_restores", c.poolRestoresPerOp, "count"},
        {"exec.worker_imbalance", c.workerImbalance, "ratio"},
        {"trace.coverage", c.coverage, "ratio"},
        {"trace.overhead_ratio", c.overheadRatio, "ratio"},
    };
}

odrips::CyclePowerProfile
evaluateFig6aAnchors(Report &report)
{
    // Paper Fig. 6(a): WAKE-UP-OFF, AON-IO-GATE, CTX-SGX-DRAM, ODRIPS.
    static constexpr double kPaperSavingsPct[] = {6.0, 13.0, 8.0, 22.0};
    static constexpr double kPaperBreakevenMs[] = {6.6, 6.3, 7.4, 6.5};

    odrips::CycleProfileCache::global().clear();
    odrips::exec::ExecPolicy serial;
    serial.jobs = 1;
    const auto evals =
        odrips::evaluateFig6aSet(odrips::skylakeConfig(), serial);

    double savings = 0.0;
    double breakevenMs = 0.0;
    double breakevenPct = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        const auto &e = evals[i + 1];
        savings = std::max(savings, std::fabs(100.0 * e.savingsVsBaseline -
                                              kPaperSavingsPct[i]));
        const double err =
            std::fabs(1e3 * odrips::ticksToSeconds(e.breakEven) -
                      kPaperBreakevenMs[i]);
        breakevenMs = std::max(breakevenMs, err);
        breakevenPct =
            std::max(breakevenPct, 100.0 * err / kPaperBreakevenMs[i]);
    }
    report.fig6aSavingsErrPp = savings;
    report.fig6aBreakevenErrMs = breakevenMs;
    report.fig6aBreakevenErrPct = breakevenPct;
    return evals[0].profile;
}

} // namespace perfbench
