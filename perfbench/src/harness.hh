/**
 * @file
 * Shared pieces of the benchmark program: command-line options, host
 * timing, the flat span registry used by traced runs, and the report
 * every workload fills in.
 *
 * Host-clock reads stay in perfbench/, outside the simulator's sources,
 * so the simulator itself never depends on host time.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/profile.hh"
#include "security/mee.hh"
#include "sim/event_queue.hh"
#include "stats_util.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Digest recorded for (workload, seed); empty when none is. */
    std::string expectDigest;
};

/** A reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Flat span registry: every span is a named host-time interval taken
 * around one call into a simulator layer. Spans do not nest, so their
 * sum is the traced wall clock they cover.
 */
class Tracer
{
  public:
    /** Time @p fn under @p name and return its result. */
    template <typename Fn>
    decltype(auto)
    span(const char *name, Fn &&fn)
    {
        const Clock::time_point start = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            record(name, secondsSince(start));
        } else {
            decltype(auto) out = fn();
            record(name, secondsSince(start));
            return out;
        }
    }

    /** Add one span of @p seconds under @p name. */
    void record(const std::string &name, double seconds);

    /** Median span under @p name, in milliseconds (0 if none). */
    double medianMs(const std::string &name) const;

    /** Sum of spans under @p name, in seconds. */
    double total(const std::string &name) const;

    /** Sum of every span, in seconds. */
    double covered() const;

  private:
    std::map<std::string, std::vector<double>> spans;
};

/**
 * Latency and throughput of a timed loop. Throughput is the median
 * over consecutive blocks of ops of (work units / host seconds), so a
 * short stall on a shared host moves one block, not the result.
 */
class OpMeter
{
  public:
    explicit OpMeter(std::size_t ops_per_block) : perBlock(ops_per_block)
    {
    }

    /** One op that took @p seconds and completed @p work units. */
    void add(double seconds, double work = 1.0);

    std::size_t ops() const { return latencies.size(); }
    double seconds() const { return totalSeconds; }

    double workPerSecond() const;
    double p50Ms() const;
    /** Latency percentile @p percentile, in milliseconds. */
    TailPercentile percentileMs(double percentile) const;
    /** The highest percentile with ten samples beyond it, in ms. */
    TailPercentile highestTailMs() const;

  private:
    std::size_t perBlock;
    std::vector<double> latencies;
    std::vector<double> blockRates;
    double blockSeconds = 0.0;
    double blockWork = 0.0;
    std::size_t blockOps = 0;
    double totalSeconds = 0.0;
    double totalWork = 0.0;
};

/** What one workload run reports. */
struct Report
{
    /** Op kind, for the human-readable lines (e.g. "points"). */
    std::string opName;
    /** Per-op latencies and block throughput of the untraced loop. */
    OpMeter meter{1};
    /** Percentile reported as op_ms_tail; the loop runs enough ops to
     * leave at least ten samples beyond it. */
    double tailLevel = 99.0;
    double setupSeconds = 0.0;
    double fig6aSavingsErrPp = 0.0;
    double fig6aBreakevenErrMs = 0.0;
    double fig6aBreakevenErrPct = 0.0;

    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> perLayer;
    /** Workload-specific names of the throughput and latency figures
     * (e.g. points_per_s, point_ms), for the human-readable lines. */
    std::string rateAlias;
    std::string latencyAlias;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failure messages. */
    std::vector<std::string> failures;

    /** Digest of the run's fixed-size output prefix. */
    std::string digest;

    /** Count one op; @p ok false marks it failed with @p why. */
    void check(bool ok, const std::string &why);
    /** Record a failed run-level check (not an op of its own). */
    void fail(const std::string &why);
};

/**
 * Layer counters of a traced run, normalised per op where noted. Every
 * workload reports every field; a layer the workload does not reach
 * reports 0, which is the prediction for that pairing.
 */
struct LayerCounts
{
    /** Ops in the traced loop. */
    double ops = 0.0;
    /** MEE statistics summed over the traced ops. */
    odrips::MeeStats mee;
    /** Simulated events executed inside event-running spans, and the
     * host seconds of those spans. */
    std::uint64_t events = 0;
    double eventSeconds = 0.0;
    /** Profile-cache hits and misses per op (untraced loop). */
    double cacheHitsPerOp = 0.0;
    double cacheMissesPerOp = 0.0;
    /** Fleet campaign phases (median seconds per campaign). */
    double poolPrimeSeconds = 0.0;
    double calibrateSeconds = 0.0;
    double hotLoopSeconds = 0.0;
    double nsPerCycle = 0.0;
    double dayGenNsPerCycle = 0.0;
    double cyclesPerOp = 0.0;
    double simulatedCyclesPerOp = 0.0;
    double poolRestoresPerOp = 0.0;
    double workerImbalance = 0.0;
    /** Traced wall clock covered by spans, and traced / untraced host
     * time over the same ops. */
    double coverage = 0.0;
    double overheadRatio = 0.0;
};

/** MEE counters accumulated between two statistics() reads. */
void addMeeDelta(odrips::MeeStats &sum, const odrips::MeeStats &before,
                 const odrips::MeeStats &after);

/** Fill @p report's per-layer metrics from a traced run. */
void emitPerLayer(const Tracer &tracer, const LayerCounts &counts,
                  Report &report);

/** Seconds spent in @p setup, repeated @p reps times; the median. */
template <typename Setup>
double
medianSetupSeconds(int reps, Setup &&setup)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point start = Clock::now();
        setup();
        times.push_back(secondsSince(start));
    }
    return median(std::move(times));
}

/** Number of set-up repetitions per run (setup_s is their median). */
constexpr int kSetupReps = 7;

/**
 * A span around a call that runs the event queue @p eq: also counts
 * the simulated events it executed, for the host-time-per-event ratio.
 */
template <typename Fn>
decltype(auto)
eventSpan(Tracer &tracer, LayerCounts &counts, const odrips::EventQueue &eq,
          const char *name, Fn &&fn)
{
    const std::uint64_t before = eq.executedEvents();
    const Clock::time_point start = Clock::now();
    const auto finish = [&] {
        const double seconds = secondsSince(start);
        tracer.record(name, seconds);
        counts.events += eq.executedEvents() - before;
        counts.eventSeconds += seconds;
    };
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        finish();
    } else {
        decltype(auto) out = fn();
        finish();
        return out;
    }
}

/**
 * Fig. 6(a) anchors: evaluate the five configurations cold (profile
 * cache cleared), fill the report's paper-error fields and return the
 * baseline profile. This is the common part of every workload's
 * set-up.
 */
odrips::CyclePowerProfile evaluateFig6aAnchors(Report &report);

/** Workload entry points. */
void runSweepCold(const Options &opt, Report &report);
void runLongtrace(const Options &opt, Report &report);
void runFleetDay(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
