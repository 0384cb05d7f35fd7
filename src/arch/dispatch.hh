/**
 * @file
 * Runtime dispatch registry for the crypto kernels.
 *
 * src/security/ calls crypto through the small function table returned
 * by activeKernels(). The table is chosen once, at first use, from the
 * probed CPU features (arch/cpu_features.hh), and can be pinned to a
 * lower level for reproducible baselines:
 *
 *   ODRIPS_DISPATCH=scalar   portable reference code only
 *   ODRIPS_DISPATCH=sse4     SSE4.1 kernels (x86-64)
 *   ODRIPS_DISPATCH=avx2     AVX2 kernels (x86-64)
 *   ODRIPS_DISPATCH=native   best the CPU supports (default; uses
 *                            SHA-NI for single- and 8-stream SHA-256
 *                            when present)
 *
 * A requested level the CPU cannot run is clamped down to the best
 * supported level at or below it (with a one-time stderr note), so a
 * pinned script never crashes on older hardware — it just runs the
 * closest baseline. Non-x86 builds always resolve to scalar (the
 * AArch64 probe reports NEON/SHA2 for diagnostics, but no NEON kernels
 * are provided yet; see DESIGN.md "SIMD dispatch").
 *
 * Every kernel is bit-identical to the scalar reference — the scalar
 * code *is* the specification, and tests/security/simd_dispatch_test.cc
 * enforces equality on random inputs for every resolvable level.
 */

#ifndef ODRIPS_ARCH_DISPATCH_HH
#define ODRIPS_ARCH_DISPATCH_HH

#include <cstddef>
#include <cstdint>

namespace odrips::arch
{

/** Dispatch levels, ordered weakest to strongest. */
enum class DispatchLevel { Scalar = 0, Sse4 = 1, Avx2 = 2, Native = 3 };

/**
 * The kernel function table. All pointers are always non-null; a level
 * that has no specialised implementation for an entry inherits the
 * best weaker one (ultimately the scalar reference).
 */
struct CryptoKernels
{
    /** Level this table implements (after clamping). */
    DispatchLevel level;

    /** Level name for logs/bench metadata: scalar|sse4|avx2|native. */
    const char *levelName;

    /** Names of the selected kernels, for bench metadata. */
    const char *sha256Name;
    const char *sha256x8Name;
    const char *speckName;

    /**
     * SHA-256 compression over @p count consecutive 64-byte blocks.
     * @p state is the 8-word working state, updated in place. Blocks
     * may be unaligned.
     */
    void (*sha256Compress)(std::uint32_t *state,
                           const std::uint8_t *blocks, std::size_t count);

    /**
     * 8-stream SHA-256 compression: stream i's blocks start at
     * @p blocks + i * @p stride and its 8-word state at
     * @p states + 8 * i; every stream processes @p count blocks.
     * Equivalent to eight independent sha256Compress calls.
     */
    void (*sha256Compress8)(std::uint32_t *states,
                            const std::uint8_t *blocks, std::size_t stride,
                            std::size_t count);

    /**
     * SPECK-128/128 encryption of @p count blocks laid out as
     * interleaved (x, y) 64-bit word pairs (the in-memory layout of
     * odrips::Block128), under the 32 expanded @p roundKeys.
     */
    void (*speckEncryptBatch)(const std::uint64_t *roundKeys,
                              std::uint64_t *xy, std::size_t count);
};

/**
 * The active kernel table. First call resolves ODRIPS_DISPATCH (or
 * Native) against the CPU probe; later calls are a single atomic load.
 */
const CryptoKernels &activeKernels();

/** The table for @p level, clamped to what the CPU supports. */
const CryptoKernels &kernelsFor(DispatchLevel level);

/** True when @p level resolves to itself (not clamped down). */
bool levelSupported(DispatchLevel level);

/**
 * Re-pin the active table (tests and per-level benchmarks). Returns
 * the previous level. Not meant to be raced against in-flight crypto:
 * callers switch levels only from single-threaded sections.
 */
DispatchLevel setDispatchLevel(DispatchLevel level);

/** Parse a level name; returns false on unknown names. */
bool parseDispatchLevel(const char *name, DispatchLevel &out);

} // namespace odrips::arch

#endif // ODRIPS_ARCH_DISPATCH_HH
