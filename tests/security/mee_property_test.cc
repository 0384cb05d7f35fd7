/**
 * @file
 * Property-style parameterized tests for the MEE: for every cache
 * geometry and region size, the engine must round-trip data bit-exactly,
 * stay consistent across flush/power cycles, and detect arbitrary
 * single-bit corruption — regardless of capacity, associativity, or
 * access order.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "mee_geometries.hh"
#include "security/mee.hh"
#include "sim/random.hh"

using namespace odrips;

namespace
{

class MeeGeometryTest : public ::testing::TestWithParam<MeeGeometry>
{
  protected:
    MeeGeometryTest() : dram("d", DramConfig{})
    {
        const MeeGeometry g = GetParam();
        MeeConfig cfg;
        for (std::size_t i = 0; i < cfg.key.size(); ++i)
            cfg.key[i] = static_cast<std::uint8_t>(11 * i + 3);
        cfg.dataBase = 1 << 20;
        cfg.dataSize = g.regionBytes;
        cfg.metaBase = 64 << 20;
        cfg.cacheNodes = g.cacheNodes;
        cfg.cacheAssociativity = g.associativity;
        mee = std::make_unique<Mee>("mee", dram, cfg);
    }

    std::vector<std::uint8_t>
    pattern(std::uint64_t len, std::uint64_t seed)
    {
        Rng rng(seed);
        std::vector<std::uint8_t> v(len);
        for (auto &b : v)
            b = static_cast<std::uint8_t>(rng.next64());
        return v;
    }

    Dram dram;
    std::unique_ptr<Mee> mee;
};

TEST_P(MeeGeometryTest, SequentialRoundTrip)
{
    const auto data = pattern(GetParam().regionBytes, 1);
    mee->secureWrite(mee->config().dataBase, data.data(), data.size(), 0);

    std::vector<std::uint8_t> out(data.size());
    bool authentic = false;
    mee->secureRead(mee->config().dataBase, out.data(), out.size(), 0,
                    authentic);
    EXPECT_TRUE(authentic);
    EXPECT_EQ(out, data);
}

TEST_P(MeeGeometryTest, RandomLineOrderRoundTrip)
{
    const std::uint64_t base = mee->config().dataBase;
    const std::uint64_t lines = GetParam().regionBytes / 64;
    Rng rng(7);

    // Write every line in a random order, then verify in another order.
    std::vector<std::uint64_t> order(lines);
    for (std::uint64_t i = 0; i < lines; ++i)
        order[i] = i;
    for (std::uint64_t i = lines - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniformInt(i + 1)]);

    std::vector<std::vector<std::uint8_t>> written(lines);
    for (std::uint64_t line : order) {
        written[line] = pattern(64, 1000 + line);
        mee->secureWrite(base + line * 64, written[line].data(), 64, 0);
    }

    for (std::uint64_t i = 0; i < lines; ++i)
        std::swap(order[i], order[rng.uniformInt(lines)]);
    for (std::uint64_t line : order) {
        std::uint8_t out[64];
        bool authentic = false;
        mee->secureRead(base + line * 64, out, 64, 0, authentic);
        EXPECT_TRUE(authentic) << "line " << line;
        EXPECT_TRUE(std::equal(out, out + 64, written[line].begin()));
    }
}

TEST_P(MeeGeometryTest, FlushPowerCycleRoundTrip)
{
    const auto data = pattern(GetParam().regionBytes, 2);
    mee->secureWrite(mee->config().dataBase, data.data(), data.size(), 0);
    mee->flush(0);
    const MeeRootState root = mee->exportRoot();
    mee->powerOff();
    mee->importRoot(root);

    std::vector<std::uint8_t> out(data.size());
    bool authentic = false;
    mee->secureRead(mee->config().dataBase, out.data(), out.size(), 0,
                    authentic);
    EXPECT_TRUE(authentic);
    EXPECT_EQ(out, data);
}

TEST_P(MeeGeometryTest, AnySingleBitFlipDetected)
{
    const auto data = pattern(GetParam().regionBytes, 3);
    mee->secureWrite(mee->config().dataBase, data.data(), data.size(), 0);
    mee->flush(0);
    mee->powerOff();
    mee->importRoot(mee->exportRoot());

    // Corrupt a handful of random positions across data AND metadata.
    Rng rng(13);
    int detected = 0;
    const int trials = 6;
    for (int t = 0; t < trials; ++t) {
        const bool in_metadata = rng.chance(0.5);
        std::uint64_t addr;
        if (in_metadata) {
            // Aim at the counter/MAC payload (first 64 B of a node) —
            // the serialized form pads nodes to 80 B and padding is,
            // by construction, not integrity-covered.
            const std::uint64_t node = rng.uniformInt(
                mee->metadataBytes() / MetadataNode::storageBytes);
            addr = mee->config().metaBase +
                   node * MetadataNode::storageBytes +
                   rng.uniformInt(64);
        } else {
            addr = mee->config().dataBase +
                   rng.uniformInt(GetParam().regionBytes);
        }
        const unsigned bit = static_cast<unsigned>(rng.uniformInt(8));

        dram.store().flipBit(addr, bit);
        std::vector<std::uint8_t> out(GetParam().regionBytes);
        bool authentic = true;
        mee->secureRead(mee->config().dataBase, out.data(), out.size(),
                        0, authentic);
        if (!authentic)
            ++detected;
        dram.store().flipBit(addr, bit); // undo
        mee->powerOff();                 // drop possibly-poisoned cache
        mee->importRoot(mee->exportRoot());
    }
    EXPECT_EQ(detected, trials);

    // And a clean read still verifies.
    std::vector<std::uint8_t> out(GetParam().regionBytes);
    bool authentic = false;
    mee->secureRead(mee->config().dataBase, out.data(), out.size(), 0,
                    authentic);
    EXPECT_TRUE(authentic);
    EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(Geometries, MeeGeometryTest,
                         ::testing::ValuesIn(meeGeometries),
                         meeGeometryName);

} // namespace
