/**
 * @file
 * Memory Encryption Engine (MEE).
 *
 * The SGX-style engine on the path between the memory controller and
 * DRAM (paper Sec. 6.2 / Fig. 4): counter-mode encryption per 64 B line,
 * a MAC per line, and an integrity tree over the per-line version
 * counters whose root stays on-chip. The engine provides
 * confidentiality, integrity, and freshness for the processor context
 * stored in the protected DRAM region.
 *
 * Latency model: protected accesses pay the raw memory latency, plus a
 * per-line crypto-pipeline cost, plus a per-metadata-miss penalty and
 * the metadata bytes' bandwidth. The MEE cache absorbs most metadata
 * traffic for streaming transfers — exactly the behaviour the paper
 * relies on for the 18 us / 13 us context save/restore latencies.
 */

#ifndef ODRIPS_SECURITY_MEE_HH
#define ODRIPS_SECURITY_MEE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/main_memory.hh"
#include "mem/memory_controller.hh"
#include "security/ctr_mode.hh"
#include "security/integrity_tree.hh"
#include "security/mee_cache.hh"
#include "security/sha256.hh"
#include "security/speck.hh"
#include "sim/checkpoint/serializer.hh"
#include "sim/named.hh"

namespace odrips
{

namespace exec
{
class ThreadPool;
} // namespace exec

/** MEE configuration. */
struct MeeConfig
{
    Speck128::Key key{};

    /** Protected data region (base within main memory, size). */
    std::uint64_t dataBase = 0;
    std::uint64_t dataSize = 0;

    /** Metadata region base (must not overlap the data region). */
    std::uint64_t metaBase = 0;

    /** Cache geometry. */
    std::size_t cacheNodes = 128;
    std::size_t cacheAssociativity = 8;

    /** Per-64B-line crypto pipeline latency, nanoseconds. */
    double cryptoWriteNsPerLine = 1.0;
    double cryptoReadNsPerLine = 0.3;

    /** Per metadata-node-miss penalty, nanoseconds. */
    double missPenaltyWriteNs = 3.0;
    double missPenaltyReadNs = 2.0;

    /** Crypto datapath energy per protected byte, joules. */
    double cryptoEnergyPerByte = 20.0e-12;
};

/** On-chip persistent state — the part that must go into Boot SRAM. */
struct MeeRootState
{
    std::uint64_t rootCounter = 0;
    Speck128::Key key{};

    /** Serialized size (fits easily in the ~1 KB Boot SRAM). */
    static constexpr std::uint64_t storageBytes = 24;

    void serialize(std::uint8_t *out) const;
    static MeeRootState deserialize(const std::uint8_t *in);
};

/** MEE statistics. */
struct MeeStats
{
    std::uint64_t linesWritten = 0;
    std::uint64_t linesRead = 0;
    std::uint64_t metadataBytesRead = 0;
    std::uint64_t metadataBytesWritten = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t authFailures = 0;
    double cryptoEnergy = 0.0;
};

/** The engine. Accesses must be 64 B aligned (the FSMs guarantee it). */
class Mee : public SecureMemoryPath, public Named
{
  public:
    Mee(std::string name, MainMemory &memory, const MeeConfig &config);

    MemAccessResult secureWrite(std::uint64_t addr,
                                const std::uint8_t *data,
                                std::uint64_t len, Tick now) override;

    MemAccessResult secureRead(std::uint64_t addr, std::uint8_t *data,
                               std::uint64_t len, Tick now,
                               bool &authentic) override;

    /**
     * Write every dirty cached metadata node back to memory. Must be
     * called before DRAM enters self-refresh with the engine powered
     * off, or cached tree updates would be lost.
     * @return latency of the writeback burst.
     */
    Tick flush(Tick now);

    /** Power-off: drop cache contents (they are volatile). flush()
     * must have been called first if the tree should stay consistent. */
    void powerOff();

    /** Export the on-chip persistent state for the Boot SRAM. */
    MeeRootState exportRoot() const;

    /** Restore the on-chip state after power-up (Boot FSM). */
    void importRoot(const MeeRootState &state);

    const MeeStats &statistics() const { return stats; }
    void resetStatistics();

    const TreeLayout &layout() const { return tree; }
    const MeeConfig &config() const { return cfg; }

    /** Metadata region footprint in bytes. */
    std::uint64_t metadataBytes() const { return tree.metadataBytes(); }

    /**
     * Shard the host-side transfer crypto (encrypt + line MACs) of
     * large transfers across @p pool instead of exec::defaultPool();
     * nullptr forces the serial path. The sharding is static over
     * fixed 8-line chunks with an ordered merge, so the modeled
     * behaviour — memory contents, stats, latencies — is bit-identical
     * for every pool size, including serial.
     */
    void setTransferPool(exec::ThreadPool *pool);

    /**
     * @name Checkpoint support
     * Serializes the root counter, statistics, power flag, and the full
     * metadata cache; the key and geometry come from the configuration
     * of the platform being restored into. Scratch buffers and the pool
     * override are transient and excluded.
     * @{
     */
    void saveState(ckpt::Writer &w) const;
    void loadState(ckpt::Reader &r);
    /** @} */

    /**
     * @name Version-prediction test hooks
     * Read-only windows onto the private predictVersions() /
     * peekCounterGroup() pair so the unit suite can pin the
     * no-side-effect invariant and cross-check predictions against a
     * serial walk of the metadata bytes in memory.
     * @{
     */

    /** Public face of predictVersions() (identical semantics). */
    void
    predictVersionsProbe(std::uint64_t first_line, std::uint64_t count,
                         bool bump, std::uint64_t *out) const
    {
        predictVersions(first_line, count, bump, out);
    }

    /** Public face of peekCounterGroup() (identical semantics). */
    void
    peekCounterGroupProbe(std::uint64_t group,
                          std::uint64_t out[TreeLayout::arity]) const
    {
        peekCounterGroup(group, out);
    }

    /** The metadata cache (read-only; peek() et al. are const). */
    const MeeCache &metadataCache() const { return cache; }

    /** @} */

  private:
    /** Cached fetch of a metadata node; accounts traffic and latency. */
    MetadataNode &fetchNode(NodeKind kind, unsigned level,
                            std::uint64_t group, bool is_write, Tick now,
                            Tick &latency, bool for_read_path);

    void writebackNode(std::uint64_t key, const MetadataNode &node,
                       Tick now);

    /** DRAM address of a node. */
    std::uint64_t nodeAddress(NodeKind kind, unsigned level,
                              std::uint64_t group) const;

    /** Decompose a cache key back into (kind, level, group). */
    static void splitKey(std::uint64_t key, NodeKind &kind,
                         unsigned &level, std::uint64_t &group);

    /** MAC over a counter group keyed by its parent counter. */
    std::uint64_t nodeMac(unsigned level, std::uint64_t group,
                          const MetadataNode &node,
                          std::uint64_t parent_counter) const;

    /** The inputs of one nodeMac(). */
    struct NodeMacInput
    {
        unsigned level = 0;
        std::uint64_t group = 0;
        std::uint64_t parent = 0;
        MetadataNode node;
        bool operator==(const NodeMacInput &) const = default;
    };

    /**
     * nodeMac() of @p count inputs into @p out. A full batch of 8 runs
     * through mac64x8; partial batches fall back to per-node nodeMac().
     * Bit-identical either way.
     */
    void batchNodeMacs(const NodeMacInput *in, std::size_t count,
                       std::uint64_t *out) const;

    /**
     * Write path: counter node (@p level, @p group) was just updated
     * under parent counter @p parent. Its MAC is owed until the node is
     * written back (settleEvictedMac) or the burst ends
     * (settleNodeMacs).
     */
    void deferNodeMac(unsigned level, std::uint64_t group,
                      std::uint64_t parent);

    /** MAC an evicted @p node before its writeback if it owes one. */
    void settleEvictedMac(std::uint64_t key, MetadataNode &node);

    /** MAC every resident node the burst still owes, 8 at a time. */
    void settleNodeMacs();

    /** MAC over a data line's ciphertext and version. */
    std::uint64_t lineMac(std::uint64_t addr, std::uint64_t version,
                          const std::uint8_t *ciphertext) const;

    /** Lines per MAC batch (matches the 8-way SIMD SHA-256 kernel). */
    static constexpr std::uint64_t macBatchLines = 8;

    /**
     * Line MACs for @p count consecutive lines of ciphertext at
     * @p linesData. A full batch runs through mac64x8 (one SHA-256
     * stream per SIMD lane); partial batches fall back to per-line
     * lineMac(). Bit-identical either way.
     */
    void batchLineMacs(const std::uint8_t *linesData, std::uint64_t count,
                       const std::uint64_t *addrs,
                       const std::uint64_t *versions,
                       std::uint64_t *out) const;

    /** Parent counter of level-@p level group @p group; walks to the
     * root. @p bump increments it (write path). */
    std::uint64_t parentCounter(unsigned level, std::uint64_t group,
                                bool bump, Tick now, Tick &latency,
                                bool for_read_path);

    /** Current counters of level-0 counter group @p group with no
     * modeled side effects: the resident cached copy when there is
     * one, else the backing-store bytes (what a fetch would load). */
    void peekCounterGroup(std::uint64_t group,
                          std::uint64_t out[TreeLayout::arity]) const;

    /**
     * Predicted version of each line in [@p first_line, @p first_line
     * + @p count): the current counter value, plus one on the write
     * path (@p bump). Pure host compute; the modeled metadata walk
     * asserts it produced exactly these values.
     */
    void predictVersions(std::uint64_t first_line, std::uint64_t count,
                         bool bump, std::uint64_t *out) const;

    /**
     * Host-side crypto phase of a transfer: per 8-line chunk, CTR
     * en/decryption of @p data in place plus the 64-bit line MACs into
     * @p macs. @p mac_first MACs the chunk before applying the
     * keystream (read path: MACs cover ciphertext). Chunks are
     * data-independent, so the phase runs serially or statically
     * sharded across cryptoPool() with bit-identical results.
     */
    void transferCrypto(std::uint64_t addr, std::uint8_t *data,
                        std::uint64_t lines,
                        const std::uint64_t *versions, bool mac_first,
                        std::uint64_t *macs) const;

    /** Pool for transferCrypto(), or nullptr for the serial path
     * (small transfers, nested inside a sweep worker, --jobs=1). */
    exec::ThreadPool *cryptoPool(std::uint64_t lines) const;

    MainMemory &mem;
    MeeConfig cfg;
    TreeLayout tree;
    CtrCipher ctr;
    MeeCache cache;
    std::uint64_t rootCounter = 0;
    MeeStats stats;
    bool poweredOn = true;
    /** Ciphertext staging buffer reused across secureWrite calls. */
    std::vector<std::uint8_t> writeScratch;
    /** Per-line predicted versions / MACs, reused across transfers. */
    std::vector<std::uint64_t> versionScratch;
    std::vector<std::uint64_t> macScratch;
    /** Per tree level, the last counter node a secureRead burst
     * verified (an identical node skips its MAC check). */
    std::vector<std::optional<NodeMacInput>> verifiedScratch;
    /** A counter node whose MAC the current write burst owes, with the
     * parent counter of its latest update. */
    struct OwedMac
    {
        std::uint64_t key;
        std::uint64_t parent;
        /** False once settled by a writeback. */
        bool owed;
    };
    std::vector<OwedMac> owedMacs;
    /** Key -> owedMacs index of every entry still owed. */
    std::unordered_map<std::uint64_t, std::size_t> owedIndex;
    /** Per tree level, the owedMacs index last deferred there (most
     * consecutive updates at a level hit the same node). */
    std::vector<std::size_t> lastOwedAt;
    /** Transfer-crypto pool override (setTransferPool). */
    exec::ThreadPool *transferPoolOverride = nullptr;
    bool transferPoolSet = false;
    /** Below this size the sharding overhead outweighs the win. */
    static constexpr std::uint64_t parallelMinLines = 256;
};

} // namespace odrips

#endif // ODRIPS_SECURITY_MEE_HH
