/**
 * @file
 * ABL-DVFS — Ablation: memory DVFS, the paper's own future-work
 * suggestion (end of Sec. 8.2): "it might be more efficient to apply
 * dynamic voltage and frequency scaling to main memory".
 *
 * Compares the static DRAM frequency points of Fig. 6(c) against a
 * per-phase oracle that keeps transfers at full speed and drops the
 * rate only where it pays (the active window), including the re-lock
 * switch cost.
 */

#include <iostream>
#include <vector>

#include "core/memory_dvfs.hh"
#include "core/odrips.hh"
#include "exec/parallel_sweep.hh"

using namespace odrips;

int
main(int argc, char **argv)
{
    Logger::quiet(true);
    exec::setDefaultJobs(resolveJobs(argc, argv));

    std::cout << "ABLATION: memory DVFS (the paper's Sec. 8.2 "
                 "suggestion) under ODRIPS\n\n";

    // Each scenario explores every DVFS operating point on fresh
    // platforms; the three shard across the pool, tables print in
    // order afterwards.
    const std::vector<double> mem_bounds = {0.0, 0.3, 0.8};
    const auto scenario_points = exec::parallelSweep(
        "memory-dvfs-sweep", mem_bounds.size(),
        [&](const exec::SweepPoint &point) {
            MemoryDvfsConfig dvfs;
            dvfs.memBoundFraction = mem_bounds[point.index];
            return exploreMemoryDvfs(skylakeConfig(),
                                     TechniqueSet::odrips(), dvfs);
        });

    for (std::size_t scenario = 0; scenario < mem_bounds.size();
         ++scenario) {
        const double mem_bound = mem_bounds[scenario];
        const auto &points = scenario_points[scenario];

        stats::Table table("memory-bound stall share = " +
                           stats::fmtPercent(mem_bound));
        table.setHeader({"policy", "active rate", "transfer rate",
                         "avg power", "transition"});
        double best_static = -1.0;
        for (const MemoryDvfsPoint &p : points) {
            if (!p.dynamic &&
                (best_static < 0 || p.averagePower < best_static)) {
                best_static = p.averagePower;
            }
            table.addRow(
                {p.label, stats::fmt(p.activeRate / 1e9, 3) + " GT/s",
                 stats::fmt(p.transferRate / 1e9, 3) + " GT/s",
                 stats::fmtPower(p.averagePower),
                 stats::fmtTime(ticksToSeconds(p.transitionLatency))});
        }
        table.print(std::cout);

        const MemoryDvfsPoint &dynamic = points.back();
        std::cout << "dynamic vs full-speed static: "
                  << stats::fmtPercent(1.0 - dynamic.averagePower /
                                                 points.front()
                                                     .averagePower)
                  << ";  vs best static: "
                  << stats::fmtPercent(1.0 - dynamic.averagePower /
                                                 best_static)
                  << "\n\n";
    }

    std::cout << "Shape: with purely latency-bound maintenance work "
                 "(top table, the Fig. 6(c)\nregime) the oracle "
                 "under-clocks the active window and matches the best "
                 "static\npoint while keeping transfers fast; once "
                 "stalls are bandwidth-bound, dilation\nat ~1.3 W "
                 "platform power swamps the interface savings and the "
                 "oracle holds\nfull speed. The dynamic policy is never "
                 "worse than the best static choice —\nwithout "
                 "committing globally, which is exactly why the paper "
                 "rejects static\ndown-clocking but endorses DVFS "
                 "(Sec. 8.2).\n";
    stats::printRunTelemetry(std::cerr);
    return 0;
}
