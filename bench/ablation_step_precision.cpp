/**
 * @file
 * ABL-STEP — Ablation: Step fraction width f vs timer counting drift.
 * The paper fixes f = 21 for 1 ppb; this sweep shows the drift halving
 * per extra fraction bit and the calibration window doubling with it
 * (N_slow = 2^f), i.e. the precision/boot-cost trade-off.
 */

#include <cmath>
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

    Crystal fast("f", 24.0e6, 18.0, Milliwatts::zero());
    Crystal slow("s", 32768.0, -35.0, Milliwatts::zero());
    const StepCalibrator cal(fast, slow);

    std::cout << "ABLATION: Step fraction bits vs counting drift\n"
              << "(crystals at +18 / -35 ppm; drift over 1 hour in "
                 "ODRIPS)\n\n";

    stats::Table table("fraction-width sweep");
    table.setHeader({"f bits", "calibration window", "drift", "meets"
                     " 1 ppb", "meets 1 ppm"});

    const std::uint64_t hour = 32768ULL * 3600ULL;
    std::vector<unsigned> widths;
    for (unsigned f = 6; f <= 26; f += 2)
        widths.push_back(f);
    const auto rows = exec::parallelSweep(
        "step-precision-sweep", widths.size(),
        [&](const exec::SweepPoint &point) -> std::vector<std::string> {
            const unsigned f = widths[point.index];
            const CalibrationResult r = cal.calibrate(f);
            const double ppb = std::abs(cal.evaluateDriftPpb(r, hour));
            return {std::to_string(f),
                    stats::fmtTime(r.duration),
                    stats::fmt(ppb, 3) + " ppb",
                    ppb < 1.0 ? "yes" : "no",
                    ppb < 1000.0 ? "yes" : "no"};
        });
    for (const auto &row : rows)
        table.addRow(row);
    table.print(std::cout);

    const unsigned f_req = StepCalibrator::requiredFractionBits(
        Hertz(24.0e6), Hertz(32768.0), 1000000000ULL);
    std::cout << "\nEq. 4 requirement for 1 ppb: f = " << f_req
              << " (paper: 21). Each extra bit halves the residual "
                 "quantization\nbut doubles the one-time calibration "
                 "window.\n";
    stats::printRunTelemetry(std::cerr);
    return 0;
}
