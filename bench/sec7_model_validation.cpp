/**
 * @file
 * SEC7 — Reproduces the power-model validation methodology of Sec. 7:
 * the paper first *predicts* technique savings with its in-house power
 * model, then validates the predictions post-silicon and reports ~95%
 * accuracy.
 *
 * Here the analytic Eq. 1 evaluation of a measured cycle profile plays
 * the power model, and the full event-driven simulation plays the
 * "silicon". The bench sweeps configurations and dwells and reports the
 * model's accuracy distribution.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "core/odrips.hh"

using namespace odrips;

int
main()
{
    Logger::quiet(true);

    std::cout << "SEC 7: power-model validation — analytic Eq. 1 vs "
                 "event-driven simulation\n\n";

    stats::Table table("validation grid");
    table.setHeader({"configuration", "dwell", "model", "\"silicon\"",
                     "accuracy"});

    std::vector<double> accuracies;
    for (const TechniqueSet &tech :
         {TechniqueSet::baseline(), TechniqueSet::aonIoGated(),
          TechniqueSet::odrips()}) {
        const PlatformConfig cfg = skylakeConfig();
        const CyclePowerProfile profile =
            measureCycleProfile(cfg, tech);

        for (Tick dwell : {20 * oneMs, 200 * oneMs, 2 * oneSec,
                           30 * oneSec}) {
            const double predicted =
                averagePowerEq1(profile, dwell, 150 * oneMs, 0.7);

            Platform platform(cfg);
            StandbySimulator sim(platform, tech);
            const StandbyResult measured =
                sim.run(StandbyWorkloadGenerator::fixed(
                    2, dwell, 150 * oneMs, 0.7, 0.8e9));

            const double accuracy =
                1.0 - std::abs(predicted -
                               measured.averageBatteryPower) /
                          measured.averageBatteryPower;
            accuracies.push_back(accuracy);
            table.addRow({tech.label(),
                          stats::fmtTime(ticksToSeconds(dwell)),
                          stats::fmtPower(predicted),
                          stats::fmtPower(measured.averageBatteryPower),
                          stats::fmtPercent(accuracy)});
        }
    }
    table.print(std::cout);

    const double worst =
        *std::min_element(accuracies.begin(), accuracies.end());
    double sum = 0.0;
    for (double a : accuracies)
        sum += a;

    std::cout << "\nmodel accuracy: mean "
              << stats::fmtPercent(sum / static_cast<double>(accuracies.size())) << ", worst "
              << stats::fmtPercent(worst)
              << "  (paper reports ~95% for its power model vs "
                 "post-silicon)\n";
    // Cache/sweep counters go to stderr so the tables above
    // stay byte-identical for any --jobs value.
    stats::printRunTelemetry(std::cerr);
    return 0;
}
