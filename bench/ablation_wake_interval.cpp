/**
 * @file
 * ABL-RES — Ablation: wake interval (idle dwell) vs average power for
 * the baseline and ODRIPS. Generalizes the paper's residency argument:
 * savings approach the idle-power gap as the dwell grows, vanish near
 * the break-even, and invert below it.
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

    const PlatformConfig cfg = skylakeConfig();
    const CyclePowerProfile base =
        measureCycleProfile(cfg, TechniqueSet::baseline());
    const CyclePowerProfile odrips =
        measureCycleProfile(cfg, TechniqueSet::odrips());

    std::cout << "ABLATION: wake interval vs connected-standby average "
                 "power\n(active window fixed at 150 ms)\n\n";

    stats::Table table("dwell sweep");
    table.setHeader({"idle dwell", "baseline avg", "ODRIPS avg",
                     "savings"});

    const Tick active = 150 * oneMs;
    const std::vector<double> dwells = {0.002, 0.005, 0.01, 0.05,
                                        0.1,   0.5,   1.0,  5.0,
                                        10.0,  30.0,  60.0, 120.0};
    const auto rows = exec::parallelSweep(
        "wake-interval-sweep", dwells.size(),
        [&](const exec::SweepPoint &point) -> std::vector<std::string> {
            const double dwell_s = dwells[point.index];
            const Tick dwell = secondsToTicks(dwell_s);
            const double p_base =
                averagePowerEq1(base, dwell, active, 0.7);
            const double p_odrips =
                averagePowerEq1(odrips, dwell, active, 0.7);
            return {stats::fmtTime(dwell_s), stats::fmtPower(p_base),
                    stats::fmtPower(p_odrips),
                    stats::fmtPercent(1.0 - p_odrips / p_base)};
        });
    for (const auto &row : rows)
        table.addRow(row);
    table.print(std::cout);

    std::cout << "\nAsymptotes: avg power -> idle power as the dwell "
                 "grows\n(baseline "
              << stats::fmtPower(base.idlePower) << ", ODRIPS "
              << stats::fmtPower(odrips.idlePower)
              << "); ODRIPS savings -> "
              << stats::fmtPercent(1.0 -
                                   odrips.idlePower / base.idlePower)
              << " of DRIPS power.\n";
    stats::printRunTelemetry(std::cerr);
    return 0;
}
