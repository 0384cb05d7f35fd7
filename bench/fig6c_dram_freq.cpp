/**
 * @file
 * FIG6C — Reproduces Fig. 6(c): the effect of DRAM frequency on the
 * connected-standby average power under ODRIPS.
 *
 * Paper: lowering the DRAM data rate from 1.6 GHz to 1.067 / 0.8 GHz
 * saves ~0.3% / ~0.7% on this workload (mostly in Active&Transitions),
 * while the reduced bandwidth lengthens the context save/restore.
 */

#include <iostream>

#include "core/odrips.hh"

using namespace odrips;

int
main()
{
    Logger::quiet(true);

    const PlatformConfig base_cfg = skylakeConfig();
    const double rates[] = {1.6e9, 1.067e9, 0.8e9};
    const char *paper[] = {"baseline", "-0.3%", "-0.7%"};

    std::cout << "FIG 6(c): ODRIPS average power vs DRAM frequency\n\n";

    stats::Table table("DRAM frequency sweep (ODRIPS)");
    table.setHeader({"DRAM rate", "bandwidth", "ctx save", "ctx restore",
                     "avg power", "delta", "paper"});

    double baseline_avg = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
        PlatformConfig cfg = base_cfg;
        cfg.dram = cfg.dram.withDataRate(rates[i]);
        const CyclePowerProfile p =
            measureCycleProfile(cfg, TechniqueSet::odrips());
        const double avg = standardWorkloadAverage(p, cfg);
        if (i == 0)
            baseline_avg = avg;

        table.addRow(
            {stats::fmt(rates[i] / 1e9, 3) + " GT/s",
             stats::fmt(cfg.dram.peakBandwidth() / 1e9, 1) + " GB/s",
             stats::fmtTime(ticksToSeconds(p.contextSaveLatency)),
             stats::fmtTime(ticksToSeconds(p.contextRestoreLatency)),
             stats::fmtPower(avg),
             i == 0 ? "baseline"
                    : stats::fmtPercent(avg / baseline_avg - 1.0),
             paper[i]});
    }
    table.print(std::cout);

    std::cout
        << "\nShape check: small average-power savings at lower DRAM\n"
           "frequency; entry/exit latencies grow with the longer\n"
           "context transfer — negligible against the 30 s residency.\n";
    // Cache/sweep counters go to stderr so the tables above
    // stay byte-identical for any --jobs value.
    stats::printRunTelemetry(std::cerr);
    return 0;
}
