/**
 * @file
 * ABL-MEE — Ablation: MEE metadata cache capacity vs context-transfer
 * latency. The paper notes the MEE carries an internal cache "to
 * alleviate performance overheads" of the authentication-tree walk;
 * this sweep quantifies how much cache the 200 KB context path needs.
 */

#include <iostream>
#include <vector>

#include "core/odrips.hh"
#include "exec/parallel_sweep.hh"
#include "sim/random.hh"

using namespace odrips;

int
main(int argc, char **argv)
{
    Logger::quiet(true);
    exec::setDefaultJobs(resolveJobs(argc, argv));

    std::cout << "ABLATION: MEE metadata cache size vs context transfer\n\n";

    stats::Table table("cache sweep (200 KB context, DDR3L-1600)");
    table.setHeader({"cache nodes", "cache KB", "save", "restore",
                     "hit rate", "metadata read"});

    // Each cache size runs a full entry/exit cycle on its own
    // Platform/EventQueue; the points shard across the pool.
    const std::vector<std::size_t> node_sizes = {8,   16,  32,  64,
                                                 128, 256, 512, 1024};
    const auto rows = exec::parallelSweep(
        "mee-cache-sweep", node_sizes.size(),
        [&](const exec::SweepPoint &point) -> std::vector<std::string> {
            const std::size_t nodes = node_sizes[point.index];
            PlatformConfig cfg = skylakeConfig();
            cfg.meeCacheNodes = nodes;
            cfg.meeCacheAssociativity = std::min<std::size_t>(8, nodes);

            Platform platform(cfg);
            StandbyFlows flows(platform, TechniqueSet::odrips());
            flows.enterIdle();
            platform.eq.run(platform.now() + oneMs);
            flows.exitIdle();

            const CycleRecord &rec = flows.lastCycle();
            const MeeStats &mee = platform.mee->statistics();
            const double hits = static_cast<double>(mee.cacheHits);
            const double total =
                hits + static_cast<double>(mee.cacheMisses);

            return {std::to_string(nodes),
                    stats::fmt(static_cast<double>(
                                   nodes * MetadataNode::storageBytes) /
                                   1024.0,
                               1),
                    stats::fmtTime(
                        ticksToSeconds(rec.contextSave->latency)),
                    stats::fmtTime(
                        ticksToSeconds(rec.contextRestore->latency)),
                    stats::fmtPercent(hits / total),
                    std::to_string(mee.metadataBytesRead >> 10) + " KB"};
        });
    for (const auto &row : rows)
        table.addRow(row);
    table.print(std::cout);

    std::cout
        << "\nFinding: the context path is a pure stream — compulsory "
           "misses dominate and\neven a tiny cache sustains ~97% hits "
           "(each node serves 8 consecutive lines).\nCache capacity "
           "mainly trades eviction writebacks during the save against "
           "a\nlonger pre-self-refresh flush.\n";

    // Part 2: random protected accesses (an SGX-enclave-like pattern)
    // where capacity genuinely matters.
    std::cout << "\nRandom 64 B protected reads over the 200 KB region "
                 "(16k accesses):\n\n";
    stats::Table random_table("random-access sweep");
    random_table.setHeader({"cache nodes", "hit rate",
                            "metadata read/access"});
    const std::vector<std::size_t> random_sizes = {8, 32, 128, 512,
                                                   2048};
    const auto random_rows = exec::parallelSweep(
        "mee-random-sweep", random_sizes.size(),
        [&](const exec::SweepPoint &point) -> std::vector<std::string> {
            const std::size_t nodes = random_sizes[point.index];
            Dram dram("d", DramConfig{});
            MeeConfig mee_cfg;
            mee_cfg.dataBase = 1 << 20;
            mee_cfg.dataSize = 200 << 10;
            mee_cfg.metaBase = 32 << 20;
            mee_cfg.cacheNodes = nodes;
            mee_cfg.cacheAssociativity =
                std::min<std::size_t>(8, nodes);
            Mee mee("mee", dram, mee_cfg);

            // Populate, then read randomly. Every point uses the same
            // fixed-seed access pattern (not the per-point fork): the
            // sweep compares cache sizes on identical traffic.
            std::vector<std::uint8_t> data(200 << 10, 0x3C);
            mee.secureWrite(mee_cfg.dataBase, data.data(), data.size(),
                            0);
            mee.resetStatistics();

            Rng rng(99);
            std::uint8_t line[64];
            bool authentic = true;
            const std::uint64_t accesses = 16384;
            for (std::uint64_t i = 0; i < accesses; ++i) {
                const std::uint64_t line_index = rng.uniformInt(3200);
                mee.secureRead(mee_cfg.dataBase + line_index * 64, line,
                               64, 0, authentic);
            }
            const MeeStats &s = mee.statistics();
            return {std::to_string(nodes),
                    stats::fmtPercent(static_cast<double>(s.cacheHits) /
                                      static_cast<double>(s.cacheHits +
                                                          s.cacheMisses)),
                    stats::fmt(static_cast<double>(s.metadataBytesRead) /
                                   static_cast<double>(accesses),
                               1) + " B"};
        });
    for (const auto &row : random_rows)
        random_table.addRow(row);
    random_table.print(std::cout);
    std::cout << "\nShape: random accesses need capacity — the hit rate "
                 "climbs until all 858\nmetadata nodes fit, which is "
                 "the regime the real MEE cache is built for.\n";
    stats::printRunTelemetry(std::cerr);
    return 0;
}
