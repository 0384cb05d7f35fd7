/**
 * @file
 * ABL-COAL — Ablation: interrupt coalescing vs average power.
 *
 * Observation 1 of the paper rests on SoCs buffering peripheral events
 * and handling them together with the next scheduled wake ("a modern
 * SoC aggregates multiple interrupts and handles them together at the
 * same time to reduce the number of wake-ups"). This sweep quantifies
 * that: a chatty network (push every ~15 s) with a growing coalescing
 * window trades notification latency for fewer full wake cycles.
 */

#include <iostream>
#include <vector>

#include "core/odrips.hh"
#include "exec/parallel_sweep.hh"

using namespace odrips;

int
main(int argc, char **argv)
{
    Logger::quiet(true);
    exec::setDefaultJobs(resolveJobs(argc, argv));

    std::cout << "ABLATION: interrupt-coalescing window vs average "
                 "power\n(kernel wake ~30 s, network pushes ~15 s, "
                 "ODRIPS)\n\n";

    stats::Table table("coalescing sweep (40 cycles)");
    table.setHeader({"window", "wake cycles/hour", "coalesced",
                     "avg power", "savings vs none"});

    struct PointResult
    {
        double averagePower = 0.0;
        double cyclesPerHour = 0.0;
        std::size_t coalesced = 0;
    };

    // Every window simulates 40 full standby cycles on its own
    // Platform/EventQueue (the workload seed is fixed per point, so
    // results do not depend on the worker count).
    const std::vector<double> windows = {0.0,  1.0,  5.0,
                                         10.0, 20.0, 30.0};
    const auto results = exec::parallelSweep(
        "coalescing-sweep", windows.size(),
        [&](const exec::SweepPoint &point) {
            PlatformConfig cfg = skylakeConfig();
            cfg.workload.networkWakeMeanSeconds = 15.0;
            cfg.workload.coalescingWindowSeconds = windows[point.index];
            cfg.workload.seed = 5;

            StandbyWorkloadGenerator gen(cfg.workload);
            const StandbyTrace trace = gen.generate(40);

            Platform platform(cfg);
            StandbySimulator sim(platform, TechniqueSet::odrips());
            const StandbyResult r = sim.run(trace);

            PointResult res;
            res.averagePower = r.averageBatteryPower;
            res.cyclesPerHour = static_cast<double>(r.cycles) /
                                (ticksToSeconds(r.simulatedTime) /
                                 3600.0);
            res.coalesced = trace.totalCoalesced();
            return res;
        });

    // The "savings vs none" column compares against the window=0
    // point, so the table is built in a second, ordered pass.
    const double no_coalescing = results.front().averagePower;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const double window_s = windows[i];
        const PointResult &r = results[i];
        table.addRow(
            {window_s == 0.0 ? "off" : stats::fmtTime(window_s),
             stats::fmt(r.cyclesPerHour, 1),
             std::to_string(r.coalesced),
             stats::fmtPower(r.averagePower),
             window_s == 0.0
                 ? "-"
                 : stats::fmtPercent(1.0 - r.averagePower /
                                               no_coalescing)});
    }
    table.print(std::cout);

    std::cout << "\nShape: each absorbed wake saves a full entry/exit "
                 "plus most of an active\nwindow; the cost is up to one "
                 "window of notification latency — the buffering\n"
                 "trade-off that lets DRIPS afford millisecond-scale "
                 "exit latencies (Sec. 3).\n";
    stats::printRunTelemetry(std::cerr);
    return 0;
}
