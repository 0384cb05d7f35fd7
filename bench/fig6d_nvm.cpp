/**
 * @file
 * FIG6D — Reproduces Fig. 6(d): storing the processor context in
 * emerging memory technologies.
 *
 *  - ODRIPS-MRAM: optimistic embedded MRAM replaces the S/R SRAMs;
 *    slightly lower average power than ODRIPS and the lowest
 *    break-even point (no off-chip transfer).
 *  - ODRIPS-PCM: PCM replaces DRAM as main memory; no self-refresh and
 *    no CKE drive, lifting total savings to ~37% vs the baseline
 *    (~15% below ODRIPS).
 */

#include <iostream>

#include "core/odrips.hh"

using namespace odrips;

int
main()
{
    Logger::quiet(true);

    const PlatformConfig dram_cfg = skylakeConfig();
    PlatformConfig pcm_cfg = dram_cfg;
    pcm_cfg.memoryKind = MainMemoryKind::Pcm;

    const CyclePowerProfile base =
        measureCycleProfile(dram_cfg, TechniqueSet::baseline());
    const double base_avg = standardWorkloadAverage(base, dram_cfg);

    struct Row
    {
        const char *label;
        const char *paper;
        CyclePowerProfile profile;
    };
    Row rows[] = {
        {"DRIPS (baseline)", "-", base},
        {"ODRIPS", "22%",
         measureCycleProfile(dram_cfg, TechniqueSet::odrips())},
        {"ODRIPS-MRAM", "slightly > ODRIPS",
         measureCycleProfile(dram_cfg, TechniqueSet::odripsMram())},
        {"ODRIPS-PCM", "37%",
         measureCycleProfile(pcm_cfg, TechniqueSet::odripsPcm())},
    };

    std::cout << "FIG 6(d): emerging-NVM context/main-memory variants\n\n";

    stats::Table table("NVM variants");
    table.setHeader({"configuration", "idle power", "avg power",
                     "savings", "paper", "break-even"});
    for (const Row &row : rows) {
        const double avg = standardWorkloadAverage(row.profile, dram_cfg);
        const BreakevenResult be = findBreakeven(row.profile, base);
        table.addRow(
            {row.label, stats::fmtPower(row.profile.idlePower),
             stats::fmtPower(avg),
             &row == rows ? "-"
                          : stats::fmtPercent(1.0 - avg / base_avg),
             row.paper,
             &row == rows || !be.found()
                 ? "-"
                 : stats::fmtTime(ticksToSeconds(be.breakEvenDwell))});
    }
    table.print(std::cout);

    std::cout << "\nShape checks:\n"
              << "  ODRIPS-MRAM < ODRIPS in average power (slightly), "
                 "with the lowest break-even;\n"
              << "  ODRIPS-PCM removes DRAM self-refresh + CKE drive "
                 "entirely (~37% total savings).\n"
              << "  ODRIPS-PCM's long break-even is dominated by PCM's "
                 "costlier active-window\n  accesses, not by its "
                 "transitions — it needs dwell to amortize the C0 "
                 "penalty.\n";
    // Cache/sweep counters go to stderr so the tables above
    // stay byte-identical for any --jobs value.
    stats::printRunTelemetry(std::cerr);
    return 0;
}
