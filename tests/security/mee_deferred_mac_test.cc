/**
 * @file
 * The write path computes each integrity-tree node MAC once per burst:
 * when the node is written back by an eviction, or when the burst
 * ends. These tests pin that deferral against the eager engine that
 * re-MACed every node on a line's path once per line.
 *
 * The pinned values were recorded with the eager engine. For every
 * MEE geometry, a seeded sequence of full and delta writes (delta runs
 * start in the middle of a counter group and cross group boundaries),
 * reads, flushes and power cycles must leave the same data and
 * metadata bytes in DRAM after each flush(), and the same MeeStats and
 * cache writebacks. The tiny and single-set caches evict nodes in the
 * middle of a burst, so they cover the writeback-time MACs.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>

#include "mee_geometries.hh"
#include "mem/dram.hh"
#include "security/mee.hh"
#include "security/sha256.hh"
#include "sim/random.hh"

using namespace odrips;

namespace
{

constexpr std::uint64_t dataBase = 1 << 20;
constexpr std::uint64_t metaBase = 64 << 20;

/** What one geometry's sequence leaves behind. */
struct Pinned
{
    /** First 8 bytes of SHA-256 over every post-flush DRAM snapshot. */
    std::uint64_t digest;
    std::uint64_t linesWritten;
    std::uint64_t linesRead;
    std::uint64_t metadataBytesRead;
    std::uint64_t metadataBytesWritten;
    std::uint64_t cacheHits;
    std::uint64_t cacheMisses;
    std::uint64_t cacheWritebacks;
    bool operator==(const Pinned &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Pinned &p)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{0x%016" PRIx64 "ULL, %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                  ", %" PRIu64 "}",
                  p.digest, p.linesWritten, p.linesRead,
                  p.metadataBytesRead, p.metadataBytesWritten, p.cacheHits,
                  p.cacheMisses, p.cacheWritebacks);
    return os << buf;
}

class MeeDeferredMacTest : public ::testing::TestWithParam<MeeGeometry>
{
  protected:
    MeeDeferredMacTest() : dram("d", DramConfig{})
    {
        const MeeGeometry g = GetParam();
        MeeConfig cfg;
        for (std::size_t i = 0; i < cfg.key.size(); ++i)
            cfg.key[i] = static_cast<std::uint8_t>(7 * i + 5);
        cfg.dataBase = dataBase;
        cfg.dataSize = g.regionBytes;
        cfg.metaBase = metaBase;
        cfg.cacheNodes = g.cacheNodes;
        cfg.cacheAssociativity = g.associativity;
        mee = std::make_unique<Mee>("mee", dram, cfg);
        shadow.assign(g.regionBytes, 0);
    }

    std::uint64_t lines() const { return shadow.size() / 64; }

    /** Encrypt @p count lines of fresh random data from line @p first. */
    void
    write(std::uint64_t first, std::uint64_t count)
    {
        std::vector<std::uint8_t> data(count * 64);
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next64());
        mee->secureWrite(dataBase + first * 64, data.data(), data.size(),
                         0);
        std::memcpy(shadow.data() + first * 64, data.data(), data.size());
    }

    /** Read @p count lines from line @p first; must authenticate. */
    void
    read(std::uint64_t first, std::uint64_t count)
    {
        std::vector<std::uint8_t> out(count * 64);
        bool authentic = false;
        mee->secureRead(dataBase + first * 64, out.data(), out.size(), 0,
                        authentic);
        ASSERT_TRUE(authentic) << "lines " << first << "+" << count;
        ASSERT_EQ(0, std::memcmp(out.data(), shadow.data() + first * 64,
                                 out.size()));
    }

    /** flush(), then fold the data and metadata regions into hash. */
    void
    flushAndDigest()
    {
        mee->flush(0);
        const auto meta =
            dram.store().read(metaBase, mee->metadataBytes());
        const auto data = dram.store().read(dataBase, shadow.size());
        hash.update(meta.data(), meta.size());
        hash.update(data.data(), data.size());
    }

    void
    powerCycle()
    {
        mee->flush(0);
        const MeeRootState root = mee->exportRoot();
        mee->powerOff();
        mee->importRoot(root);
    }

    /** The seeded write/read/flush/power-cycle sequence. */
    Pinned
    runSequence()
    {
        write(0, lines());
        flushAndDigest();
        read(0, lines());

        // Delta runs that start mid-group and cross group boundaries at
        // levels 0 and 1.
        write(3, std::min<std::uint64_t>(13, lines() - 3));
        write(61 % lines(), std::min<std::uint64_t>(9, lines() - 61 % lines()));
        read(0, lines());
        flushAndDigest();

        for (int op = 0; op < 24; ++op) {
            const std::uint64_t first = rng.uniformInt(lines());
            const std::uint64_t count =
                1 + rng.uniformInt(std::min<std::uint64_t>(
                        80, lines() - first));
            switch (rng.uniformInt(5)) {
            case 0:
            case 1:
                write(first, count);
                break;
            case 2:
                read(first, count);
                break;
            case 3:
                flushAndDigest();
                break;
            default:
                powerCycle();
                read(0, lines());
                break;
            }
        }
        write(0, lines());
        powerCycle();
        read(0, lines());
        flushAndDigest();

        const Sha256::Digest d = hash.finish();
        Pinned p{};
        std::memcpy(&p.digest, d.data(), sizeof(p.digest));
        const MeeStats &s = mee->statistics();
        EXPECT_EQ(s.authFailures, 0u);
        p.linesWritten = s.linesWritten;
        p.linesRead = s.linesRead;
        p.metadataBytesRead = s.metadataBytesRead;
        p.metadataBytesWritten = s.metadataBytesWritten;
        p.cacheHits = s.cacheHits;
        p.cacheMisses = s.cacheMisses;
        p.cacheWritebacks = mee->metadataCache().writebacks();
        return p;
    }

    Dram dram;
    std::unique_ptr<Mee> mee;
    std::vector<std::uint8_t> shadow;
    Rng rng{0xdefe44ed};
    Sha256 hash;
};

/** Recorded with the eager engine, in meeGeometries order. */
const Pinned eagerReference[] = {
    {0xfd9a261585720b8fULL, 240, 526, 68880, 23360, 2969, 861, 292},
    {0xfd9a261585720b8fULL, 240, 526, 12720, 5920, 3671, 159, 74},
    {0x31e6d60c4835939eULL, 2600, 7241, 810000, 221280, 78444, 10125, 2766},
    {0x31e6d60c4835939eULL, 2600, 7241, 212240, 59440, 85916, 2653, 743},
    {0xeb68587fdef24a92ULL, 6734, 12930, 425040, 147680, 171663, 5313,
     1846},
    {0xeb68587fdef24a92ULL, 6734, 12930, 425760, 147680, 171654, 5322,
     1846},
    {0x681b89aa6562836dULL, 33194, 114875, 3225280, 727360, 1588443, 40316,
     9092},
};

std::size_t
geometryIndex(const MeeGeometry &g)
{
    for (std::size_t i = 0; i < std::size(meeGeometries); ++i) {
        const MeeGeometry &m = meeGeometries[i];
        if (m.regionBytes == g.regionBytes &&
            m.cacheNodes == g.cacheNodes &&
            m.associativity == g.associativity)
            return i;
    }
    return std::size(meeGeometries);
}

TEST_P(MeeDeferredMacTest, MatchesEagerEngine)
{
    const std::size_t i = geometryIndex(GetParam());
    ASSERT_LT(i, std::size(eagerReference));
    EXPECT_EQ(runSequence(), eagerReference[i]);
}

TEST_P(MeeDeferredMacTest, TamperedWrittenBackNodeIsDetected)
{
    write(0, lines());
    // In the small caches some nodes were written back by a mid-burst
    // eviction and carry the MAC computed at that writeback: tamper
    // with the first such node. When the whole tree fits, tamper with
    // one that flush() wrote back.
    const TreeLayout &tree = mee->layout();
    std::uint64_t target = 0;
    bool found = false;
    for (unsigned level = 0; level < tree.counterLevels() && !found;
         ++level)
        for (std::uint64_t g = 0; g < tree.counterNodes(level); ++g) {
            const std::uint64_t key =
                TreeLayout::nodeKey(NodeKind::CounterGroup, level, g);
            if (!mee->metadataCache().contains(key)) {
                target = metaBase +
                         tree.nodeOffset(NodeKind::CounterGroup, level, g);
                found = true;
                break;
            }
        }
    if (!found)
        target = metaBase + tree.nodeOffset(NodeKind::CounterGroup, 0, 0);

    for (const std::uint64_t byte : {std::uint64_t{8}, std::uint64_t{64}}) {
        // Flush the dirty nodes and start cold, so the read fetches the
        // target from DRAM. A non-resident target keeps the bytes its
        // mid-burst writeback left there.
        powerCycle();
        dram.store().flipBit(target + byte, 2);
        std::vector<std::uint8_t> out(shadow.size());
        bool authentic = true;
        mee->secureRead(dataBase, out.data(), out.size(), 0, authentic);
        EXPECT_FALSE(authentic) << "byte " << byte;
        dram.store().flipBit(target + byte, 2);
    }
    // The tampered copies were only read, so they are clean: drop them
    // and the tree verifies again.
    powerCycle();
    read(0, lines());
}

INSTANTIATE_TEST_SUITE_P(Geometries, MeeDeferredMacTest,
                         ::testing::ValuesIn(meeGeometries),
                         meeGeometryName);

} // namespace
