/**
 * @file
 * FIG6A — Reproduces Fig. 6(a): platform average power of the baseline
 * and of each technique (WAKE-UP-OFF, AON-IO-GATE, CTX-SGX-DRAM,
 * ODRIPS), plus each configuration's energy break-even point from the
 * 0.6 ms - 1 s residency sweep.
 *
 * Paper: savings of 6% / 13% / 8% / 22%; break-even points of
 * 6.6 / 6.3 / 7.4 / 6.5 ms.
 */

#include <iostream>

#include "core/odrips.hh"
#include "exec/parallel_sweep.hh"

using namespace odrips;

int
main(int argc, char **argv)
{
    Logger::quiet(true);
    exec::setDefaultJobs(resolveJobs(argc, argv));

    const PlatformConfig cfg = skylakeConfig();
    const auto evals = evaluateFig6aSet(cfg);

    const char *paper_savings[] = {"-", "6%", "13%", "8%", "22%"};
    const char *paper_breakeven[] = {"-", "6.6 ms", "6.3 ms", "7.4 ms",
                                     "6.5 ms"};

    std::cout << "FIG 6(a): technique average power and break-even "
              << "points\n"
              << "(standard workload: ~30 s dwell, ~200 ms active)\n\n";

    stats::Table table("technique comparison");
    table.setHeader({"configuration", "avg power", "savings",
                     "paper savings", "break-even", "paper BE",
                     "idle power"});
    for (std::size_t i = 0; i < evals.size(); ++i) {
        const TechniqueEvaluation &e = evals[i];
        table.addRow(
            {e.label, stats::fmtPower(e.averagePower),
             i == 0 ? "-" : stats::fmtPercent(e.savingsVsBaseline),
             paper_savings[i],
             i == 0 ? "-"
                    : stats::fmtTime(ticksToSeconds(e.breakEven)),
             paper_breakeven[i], stats::fmtPower(e.profile.idlePower)});
    }
    table.print(std::cout);

    // The break-even sweep curve for ODRIPS vs the baseline, as in the
    // right axis of Fig. 6(a). A zoomed sweep around the crossover for
    // display; the break-even itself comes from the full paper sweep.
    const BreakevenResult be =
        findBreakeven(evals[4].profile, evals[0].profile);
    BreakevenSweep zoom;
    zoom.end = 20 * oneMs;
    zoom.step = secondsToTicks(0.1e-3);
    const BreakevenResult zoomed =
        findBreakeven(evals[4].profile, evals[0].profile, zoom, 16);

    std::cout << "\nODRIPS vs baseline residency sweep "
              << "(zoom on 0.6 - 20 ms of the 0.6 ms - 1 s sweep):\n";
    stats::Table curve("average power vs DRIPS residency");
    curve.setHeader({"dwell", "ODRIPS avg", "baseline avg", "winner"});
    for (const auto &[dwell, p_tech, p_base] : zoomed.curve) {
        curve.addRow({stats::fmtTime(ticksToSeconds(dwell)),
                      stats::fmtPower(p_tech), stats::fmtPower(p_base),
                      p_tech < p_base ? "ODRIPS" : "baseline"});
    }
    curve.print(std::cout);
    std::cout << "break-even (sweep)   : "
              << stats::fmtTime(ticksToSeconds(be.breakEvenDwell)) << '\n'
              << "break-even (analytic): "
              << stats::fmtTime(ticksToSeconds(be.analyticBreakEven))
              << '\n';

    // Savings decomposition at the idle state, mirroring the paper's
    // 1% + 5% + 4% + 7% + 5% = 22% account.
    std::cout << "\nIdle-power reduction by source (battery level):\n";
    const double base_idle = evals[0].profile.idlePower;
    const char *labels[] = {"", "wake-up & timer (+chipset fast clock)",
                            "AON IO gating", "S/R SRAM elimination"};
    for (std::size_t i = 1; i < evals.size() - 1; ++i) {
        const double prev = i == 3 ? base_idle : evals[i - 1].profile.idlePower;
        const double cur = evals[i].profile.idlePower;
        std::cout << "  " << labels[i] << ": "
                  << stats::fmtPower(prev - cur) << '\n';
    }
    std::cout << "  total ODRIPS idle reduction: "
              << stats::fmtPower(base_idle - evals[4].profile.idlePower)
              << " ("
              << stats::fmtPercent(1.0 - evals[4].profile.idlePower /
                                             base_idle)
              << " of DRIPS power)\n";

    // Throughput counters go to stderr so the result tables above stay
    // byte-identical for any --jobs value.
    stats::printRunTelemetry(std::cerr);
    return 0;
}
