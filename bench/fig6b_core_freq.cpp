/**
 * @file
 * FIG6B — Reproduces Fig. 6(b): the effect of core frequency on the
 * connected-standby average power under ODRIPS ("race-to-sleep").
 *
 * Paper: raising the core clock from 0.8 GHz to 1.0 GHz saves ~1.4%
 * (the Vmin floor makes extra frequency nearly free and the active
 * window shrinks); 1.5 GHz costs ~1% because voltage must rise.
 */

#include <iostream>

#include "core/odrips.hh"

using namespace odrips;

int
main()
{
    Logger::quiet(true);

    const PlatformConfig base_cfg = skylakeConfig();
    const double frequencies[] = {0.8e9, 1.0e9, 1.5e9};
    const char *paper[] = {"baseline", "-1.4%", "+1%"};

    // The active window is defined at 0.8 GHz: 200 ms with 70% of it
    // CPU-bound work that scales with frequency.
    const double active_s = 0.5 * (base_cfg.workload.activeMinSeconds +
                                   base_cfg.workload.activeMaxSeconds);
    const Tick dwell = secondsToTicks(base_cfg.workload.idleDwellSeconds);

    std::cout << "FIG 6(b): ODRIPS average power vs core frequency\n\n";

    stats::Table table("core frequency sweep (ODRIPS)");
    table.setHeader({"core clock", "voltage", "C0 power", "active window",
                     "avg power", "delta", "paper"});

    double baseline_avg = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
        PlatformConfig cfg = base_cfg;
        cfg.coreFrequencyHz = frequencies[i];
        const CyclePowerProfile p =
            measureCycleProfile(cfg, TechniqueSet::odrips());

        const Tick cpu = secondsToTicks(active_s *
                                        cfg.workload.scalableFraction *
                                        0.8e9 / frequencies[i]);
        const Tick stall = secondsToTicks(
            active_s * (1.0 - cfg.workload.scalableFraction));
        const double avg = averagePowerEq1(p, dwell, cpu, stall);
        if (i == 0)
            baseline_avg = avg;

        table.addRow(
            {stats::fmt(frequencies[i] / 1e9, 1) + " GHz",
             stats::fmt(cfg.vfCurve.voltageAt(frequencies[i]), 2) + " V",
             stats::fmtPower(p.activePower),
             stats::fmtTime(ticksToSeconds(cpu + stall)),
             stats::fmtPower(avg),
             i == 0 ? "baseline"
                    : stats::fmtPercent(avg / baseline_avg - 1.0),
             paper[i]});
    }
    table.print(std::cout);

    std::cout << "\nShape check: the best operating point lies between "
                 "0.8 and 1.5 GHz\n(race-to-sleep pays off only while "
                 "the core stays at the Vmin floor).\n";
    // Cache/sweep counters go to stderr so the tables above
    // stay byte-identical for any --jobs value.
    stats::printRunTelemetry(std::cerr);
    return 0;
}
