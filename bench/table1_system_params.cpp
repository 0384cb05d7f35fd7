/**
 * @file
 * TAB1 — Reproduces Table 1: baseline and target system parameters,
 * as encoded in the platform configuration presets.
 */

#include <iostream>

#include "core/odrips.hh"

using namespace odrips;

int
main()
{
    Logger::quiet(true);

    const PlatformConfig sky = skylakeConfig();
    const PlatformConfig has = haswellUltConfig();

    std::cout << "TABLE 1: baseline and target system parameters\n\n";

    stats::Table table("system parameters");
    table.setHeader({"parameter", "baseline (Haswell-ULT)",
                     "target (Skylake)"});
    table.addRow({"processor", has.name, sky.name});
    table.addRow({"process node", to_string(has.processorNode),
                  to_string(sky.processorNode)});
    table.addRow({"chipset node", to_string(has.chipsetNode),
                  to_string(sky.chipsetNode)});
    table.addRow({"core frequency range", "0.8 - 2.4 GHz",
                  "0.8 - 2.4 GHz"});
    table.addRow({"LLC",
                  std::to_string(has.llcBytes >> 20) + " MB",
                  std::to_string(sky.llcBytes >> 20) + " MB"});
    table.addRow({"memory", "DDR3L-1.6GHz dual channel",
                  "DDR3L-1.6GHz dual channel"});
    table.addRow({"memory capacity",
                  std::to_string(has.dram.capacityBytes >> 30) + " GB",
                  std::to_string(sky.dram.capacityBytes >> 30) + " GB"});
    table.addRow({"DRIPS exit latency",
                  stats::fmtTime(ticksToSeconds(has.timings.baselineExit)),
                  stats::fmtTime(
                      ticksToSeconds(sky.timings.baselineExit))});
    table.print(std::cout);

    // The power-model methodology (Sec. 7): measured 22 nm numbers are
    // scaled to 14 nm using the process characteristics.
    std::cout << "\nProcess-scaling factors (the paper's step 2):\n";
    stats::Table scaling("22nm -> 14nm scaling");
    scaling.setHeader({"power type", "scale factor"});
    scaling.addRow({"dynamic",
                    stats::fmt(dynamicScale(ProcessNode::Nm22,
                                            ProcessNode::Nm14),
                               3)});
    scaling.addRow({"leakage",
                    stats::fmt(leakageScale(ProcessNode::Nm22,
                                            ProcessNode::Nm14),
                               3)});
    scaling.print(std::cout);

    const CyclePowerProfile sky_p =
        measureCycleProfile(sky, TechniqueSet::baseline());
    const CyclePowerProfile has_p =
        measureCycleProfile(has, TechniqueSet::baseline());
    std::cout << "\nResulting DRIPS platform power: Haswell-ULT "
              << stats::fmtPower(has_p.idlePower) << "  ->  Skylake "
              << stats::fmtPower(sky_p.idlePower) << '\n';
    // Cache/sweep counters go to stderr so the tables above
    // stay byte-identical for any --jobs value.
    stats::printRunTelemetry(std::cerr);
    return 0;
}
