/**
 * @file
 * Per-sweep throughput counters: wall-clock time, point count and
 * points/sec for every experiment sweep run through the parallel
 * runner, so the speedup of a `--jobs=N` run is observable in each
 * bench's report.
 *
 * The records accumulate in a process-wide registry (thread-safe);
 * benches print them with printSweepReport() — to stderr, so that the
 * result tables on stdout stay byte-identical for any worker count.
 */

#ifndef ODRIPS_STATS_SWEEP_METER_HH
#define ODRIPS_STATS_SWEEP_METER_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace odrips::stats
{

/** One completed sweep. */
struct SweepRecord
{
    std::string name;
    std::size_t points = 0;
    unsigned jobs = 1;
    double wallSeconds = 0.0;

    double
    pointsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(points) / wallSeconds
                   : 0.0;
    }
};

/**
 * RAII wall-clock meter for one sweep: times construction to
 * destruction (or finish()) and appends a SweepRecord to the registry.
 */
class SweepMeter
{
  public:
    SweepMeter(std::string name, std::size_t points, unsigned jobs);
    ~SweepMeter();

    SweepMeter(const SweepMeter &) = delete;
    SweepMeter &operator=(const SweepMeter &) = delete;

    /** Stop the clock and record now (idempotent). */
    void finish();

  private:
    std::string name;
    std::size_t points;
    unsigned jobs;
    // Host wall-clock is deliberate here: the meter reports build
    // progress to the operator and never feeds simulation results.
    std::chrono::steady_clock::time_point start; // odrips-lint: allow(wall-clock)
    bool recorded = false;
};

/** Snapshot of every sweep recorded so far (in completion order). */
std::vector<SweepRecord> sweepRecords();

/** Drop all recorded sweeps (tests / repeated runs). */
void clearSweepRecords();

/**
 * Render the recorded sweeps as a table: name, points, jobs, wall
 * time, points/sec. Prints nothing when no sweep was recorded.
 */
void printSweepReport(std::ostream &os);

/**
 * Register an extra telemetry section to be appended whenever
 * printRunTelemetry() runs. Higher layers (e.g. the profile-cache in
 * core) hook their counters in here, so the stats layer never has to
 * know about them. Sections print in registration order and must be
 * safe to invoke multiple times. Registration is process-wide and
 * permanent (sections are expected to live for the process, like the
 * global caches they report on).
 */
void addReportSection(std::function<void(std::ostream &)> section);

/**
 * The standard end-of-run telemetry epilogue every bench prints to
 * stderr: the sweep-throughput report plus every registered section
 * (profile-cache counters, ...).
 */
void printRunTelemetry(std::ostream &os);

} // namespace odrips::stats

#endif // ODRIPS_STATS_SWEEP_METER_HH
