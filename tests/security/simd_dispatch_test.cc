/**
 * @file
 * Differential tests for the runtime-dispatched SIMD crypto kernels:
 * every dispatch level the CPU can run must produce bit-identical
 * results to the portable scalar reference — SHA-256 across message
 * lengths, alignments, and streaming split points; the 8-stream
 * compression kernels against eight scalar compressions; SPECK-128
 * CTR across batch sizes; mac64x8 against eight mac64 calls; and a full
 * MEE context round trip (ciphertext, MACs, stats).
 *
 * Registered under the `odrips_simd` ctest label; scripts/check.sh
 * additionally runs the whole security suite twice (native and
 * ODRIPS_DISPATCH=scalar) so the fallback path cannot rot.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "arch/cpu_features.hh"
#include "arch/crypto_kernels.hh"
#include "arch/dispatch.hh"
#include "mem/dram.hh"
#include "security/ctr_mode.hh"
#include "security/mee.hh"
#include "security/sha256.hh"
#include "security/speck.hh"
#include "sim/random.hh"

using namespace odrips;

namespace
{

/** Dispatch levels that resolve to themselves on this machine. */
std::vector<arch::DispatchLevel>
testableLevels()
{
    std::vector<arch::DispatchLevel> levels;
    for (arch::DispatchLevel level :
         {arch::DispatchLevel::Sse4, arch::DispatchLevel::Avx2,
          arch::DispatchLevel::Native}) {
        if (arch::levelSupported(level))
            levels.push_back(level);
    }
    return levels;
}

/** RAII dispatch pin. */
class ScopedDispatch
{
  public:
    explicit ScopedDispatch(arch::DispatchLevel level)
        : previous(arch::setDispatchLevel(level))
    {
    }
    ~ScopedDispatch() { arch::setDispatchLevel(previous); }

  private:
    arch::DispatchLevel previous;
};

std::vector<std::uint8_t>
randomBytes(Rng &rng, std::size_t len)
{
    std::vector<std::uint8_t> out(len);
    for (std::uint8_t &b : out)
        b = static_cast<std::uint8_t>(rng.next64());
    return out;
}

TEST(SimdDispatchTest, ProbeIsCoherent)
{
    // Native always resolves; scalar is always its own level.
    EXPECT_TRUE(arch::levelSupported(arch::DispatchLevel::Scalar));
    EXPECT_TRUE(arch::levelSupported(arch::DispatchLevel::Native));
    EXPECT_EQ(arch::kernelsFor(arch::DispatchLevel::Scalar).levelName,
              std::string("scalar"));
    // The feature string never comes back empty.
    EXPECT_FALSE(arch::cpuFeatureString().empty());
}

TEST(SimdDispatchTest, Sha256MatchesScalarAcrossLengths)
{
    Rng rng(0x5e41);
    const std::vector<std::uint8_t> data = randomBytes(rng, 4096);

    for (std::size_t len = 0; len <= data.size();
         len = (len < 300 ? len + 1 : len + 97)) {
        Sha256::Digest reference;
        {
            ScopedDispatch pin(arch::DispatchLevel::Scalar);
            reference = Sha256::hash(data.data(), len);
        }
        for (arch::DispatchLevel level : testableLevels()) {
            ScopedDispatch pin(level);
            const Sha256::Digest simd = Sha256::hash(data.data(), len);
            ASSERT_EQ(std::memcmp(reference.data(), simd.data(),
                                  reference.size()),
                      0)
                << "len=" << len << " level="
                << arch::kernelsFor(level).levelName;
        }
    }
}

TEST(SimdDispatchTest, Sha256MatchesScalarAtUnalignedOffsets)
{
    Rng rng(0xa119);
    const std::vector<std::uint8_t> data = randomBytes(rng, 4096 + 64);

    for (std::size_t offset = 0; offset < 16; ++offset) {
        for (const std::size_t len : {0ul, 1ul, 55ul, 64ul, 65ul, 127ul,
                                      512ul, 1000ul, 4096ul}) {
            Sha256::Digest reference;
            {
                ScopedDispatch pin(arch::DispatchLevel::Scalar);
                reference = Sha256::hash(data.data() + offset, len);
            }
            for (arch::DispatchLevel level : testableLevels()) {
                ScopedDispatch pin(level);
                const Sha256::Digest simd =
                    Sha256::hash(data.data() + offset, len);
                ASSERT_EQ(std::memcmp(reference.data(), simd.data(),
                                      reference.size()),
                          0)
                    << "offset=" << offset << " len=" << len << " level="
                    << arch::kernelsFor(level).levelName;
            }
        }
    }
}

TEST(SimdDispatchTest, Sha256StreamingSplitsMatchOneShot)
{
    Rng rng(0x57e4);
    const std::vector<std::uint8_t> data = randomBytes(rng, 2048);

    Sha256::Digest reference;
    {
        ScopedDispatch pin(arch::DispatchLevel::Scalar);
        reference = Sha256::hash(data.data(), data.size());
    }

    for (arch::DispatchLevel level : testableLevels()) {
        ScopedDispatch pin(level);
        Rng splits(0x5911);
        for (int trial = 0; trial < 64; ++trial) {
            Sha256 h;
            std::size_t pos = 0;
            while (pos < data.size()) {
                const std::size_t chunk = std::min<std::size_t>(
                    1 + splits.uniformInt(511), data.size() - pos);
                h.update(data.data() + pos, chunk);
                pos += chunk;
            }
            const Sha256::Digest simd = h.finish();
            ASSERT_EQ(std::memcmp(reference.data(), simd.data(),
                                  reference.size()),
                      0)
                << "trial=" << trial << " level="
                << arch::kernelsFor(level).levelName;
        }
    }
}

TEST(SimdDispatchTest, SpeckBatchMatchesScalarAcrossCounts)
{
    Rng rng(0x9bec);
    Speck128::Key key;
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(rng.next64());
    const Speck128 cipher(key);

    for (std::size_t count = 1; count <= 33; ++count) {
        std::vector<Block128> reference(count);
        for (Block128 &blk : reference) {
            blk.x = rng.next64();
            blk.y = rng.next64();
        }
        std::vector<Block128> plain = reference;

        {
            ScopedDispatch pin(arch::DispatchLevel::Scalar);
            cipher.encryptBatch(reference.data(), reference.size());
        }
        // Scalar batch must equal scalar single-block encryption.
        for (std::size_t b = 0; b < count; ++b)
            ASSERT_EQ(cipher.encrypt(plain[b]), reference[b]);

        for (arch::DispatchLevel level : testableLevels()) {
            ScopedDispatch pin(level);
            std::vector<Block128> simd = plain;
            cipher.encryptBatch(simd.data(), simd.size());
            for (std::size_t b = 0; b < count; ++b)
                ASSERT_EQ(reference[b], simd[b])
                    << "count=" << count << " block=" << b << " level="
                    << arch::kernelsFor(level).levelName;
        }
    }
}

TEST(SimdDispatchTest, CtrModeMatchesScalarAcrossLengthsAndOffsets)
{
    Rng rng(0xc7a0);
    Speck128::Key key;
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(rng.next64());
    const CtrCipher ctr(key);

    const std::vector<std::uint8_t> plain = randomBytes(rng, 4096 + 16);
    for (const std::size_t len :
         {1ul, 15ul, 16ul, 17ul, 64ul, 100ul, 512ul, 4096ul}) {
        for (std::size_t offset = 0; offset < 3; ++offset) {
            std::vector<std::uint8_t> reference(
                plain.begin() + static_cast<long>(offset),
                plain.begin() + static_cast<long>(offset + len));
            {
                ScopedDispatch pin(arch::DispatchLevel::Scalar);
                ctr.apply(0xdead000, 42, reference.data(), len);
            }
            for (arch::DispatchLevel level : testableLevels()) {
                ScopedDispatch pin(level);
                std::vector<std::uint8_t> simd(
                    plain.begin() + static_cast<long>(offset),
                    plain.begin() + static_cast<long>(offset + len));
                ctr.apply(0xdead000, 42, simd.data(), len);
                ASSERT_EQ(reference, simd)
                    << "len=" << len << " offset=" << offset << " level="
                    << arch::kernelsFor(level).levelName;
            }
        }
    }
}

/** Every level's 8-stream kernel, called directly, against eight
 * scalar compressions: 1-4 blocks per stream, strides of 1-3 blocks
 * (a 64 B stride with several blocks overlaps the streams' inputs),
 * aligned and unaligned bases, random starting states. */
TEST(SimdDispatchTest, Sha256Compress8MatchesEightScalarCompressions)
{
    Rng rng(0x5ca8);
    const std::vector<std::uint8_t> data = randomBytes(rng, 8 * 4 * 64 + 64);

    std::vector<arch::DispatchLevel> levels = testableLevels();
    levels.push_back(arch::DispatchLevel::Scalar);
    for (const std::size_t offset : {std::size_t{0}, std::size_t{5}})
        for (const std::size_t stride : {64, 128, 192})
            for (std::size_t count = 1; count <= 4; ++count) {
                const std::uint8_t *base = data.data() + offset;
                std::uint32_t initial[64];
                for (std::uint32_t &w : initial)
                    w = static_cast<std::uint32_t>(rng.next64());

                std::uint32_t reference[64];
                std::memcpy(reference, initial, sizeof(initial));
                for (std::size_t i = 0; i < 8; ++i)
                    arch::sha256CompressScalar(reference + 8 * i,
                                               base + i * stride, count);

                for (arch::DispatchLevel level : levels) {
                    const arch::CryptoKernels &k = arch::kernelsFor(level);
                    std::uint32_t states[64];
                    std::memcpy(states, initial, sizeof(initial));
                    k.sha256Compress8(states, base, stride, count);
                    ASSERT_EQ(std::memcmp(reference, states,
                                          sizeof(states)),
                              0)
                        << "kernel=" << k.sha256x8Name
                        << " level=" << k.levelName
                        << " offset=" << offset << " stride=" << stride
                        << " count=" << count;
                }
            }
}

TEST(SimdDispatchTest, Mac64x8MatchesEightMac64Calls)
{
    Rng rng(0x3ac8);
    std::array<std::uint8_t, 16> key;
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(rng.next64());

    const std::vector<std::uint8_t> payload = randomBytes(rng, 8 * 64);
    std::uint64_t addrs[8], versions[8], domains[8];
    MacSegment segments[8 * 3];
    std::uint64_t reference[8];
    for (std::size_t lane = 0; lane < 8; ++lane) {
        addrs[lane] = rng.next64();
        versions[lane] = rng.next64();
        domains[lane] = rng.next64();
        segments[3 * lane] = {payload.data() + 64 * lane, 64};
        segments[3 * lane + 1] = {&addrs[lane], 8};
        segments[3 * lane + 2] = {&versions[lane], 8};
    }
    {
        ScopedDispatch pin(arch::DispatchLevel::Scalar);
        for (std::size_t lane = 0; lane < 8; ++lane)
            reference[lane] = mac64(key, domains[lane],
                                    {{payload.data() + 64 * lane, 64},
                                     {&addrs[lane], 8},
                                     {&versions[lane], 8}});
    }

    for (arch::DispatchLevel level : testableLevels()) {
        ScopedDispatch pin(level);
        std::uint64_t batched[8];
        mac64x8(key, domains, segments, 3, batched);
        for (std::size_t lane = 0; lane < 8; ++lane)
            ASSERT_EQ(reference[lane], batched[lane])
                << "lane=" << lane << " level="
                << arch::kernelsFor(level).levelName;
    }

    // The scalar fallback of mac64x8 itself must also match.
    {
        ScopedDispatch pin(arch::DispatchLevel::Scalar);
        std::uint64_t batched[8];
        mac64x8(key, domains, segments, 3, batched);
        for (std::size_t lane = 0; lane < 8; ++lane)
            ASSERT_EQ(reference[lane], batched[lane]) << "lane=" << lane;
    }
}

/** Full context transfer per dispatch level: memory image, restored
 * plaintext, and MEE statistics must all be identical to scalar. */
TEST(SimdDispatchTest, MeeContextTransferBitIdenticalAcrossLevels)
{
    Rng rng(0x6ee0);
    // An awkward size: 37 lines, so the batched path sees four full
    // 8-line batches plus a 5-line tail.
    const std::size_t contextBytes = 37 * 64;
    const std::vector<std::uint8_t> context =
        randomBytes(rng, contextBytes);

    struct Snapshot
    {
        std::vector<std::uint8_t> restored;
        std::vector<std::uint8_t> memoryImage;
        MeeStats stats;
        bool authentic = false;
    };

    const auto runTransfer = [&](arch::DispatchLevel level) {
        ScopedDispatch pin(level);
        Dram dram("d", DramConfig{});
        MeeConfig cfg;
        cfg.dataBase = 1 << 20;
        cfg.dataSize = contextBytes;
        cfg.metaBase = 8 << 20;
        Mee mee("mee", dram, cfg);

        Snapshot snap;
        mee.secureWrite(cfg.dataBase, context.data(), contextBytes, 0);
        snap.memoryImage = dram.store().read(cfg.dataBase, contextBytes);
        snap.restored.resize(contextBytes);
        mee.secureRead(cfg.dataBase, snap.restored.data(), contextBytes,
                       0, snap.authentic);
        snap.stats = mee.statistics();
        return snap;
    };

    const Snapshot reference = runTransfer(arch::DispatchLevel::Scalar);
    ASSERT_TRUE(reference.authentic);
    ASSERT_EQ(reference.restored, context);

    for (arch::DispatchLevel level : testableLevels()) {
        const Snapshot simd = runTransfer(level);
        const char *name = arch::kernelsFor(level).levelName;
        EXPECT_TRUE(simd.authentic) << name;
        EXPECT_EQ(reference.restored, simd.restored) << name;
        EXPECT_EQ(reference.memoryImage, simd.memoryImage) << name;
        EXPECT_EQ(reference.stats.cacheHits, simd.stats.cacheHits)
            << name;
        EXPECT_EQ(reference.stats.cacheMisses, simd.stats.cacheMisses)
            << name;
        EXPECT_EQ(reference.stats.metadataBytesRead,
                  simd.stats.metadataBytesRead)
            << name;
        EXPECT_EQ(reference.stats.metadataBytesWritten,
                  simd.stats.metadataBytesWritten)
            << name;
    }
}

} // namespace
