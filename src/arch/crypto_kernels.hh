/**
 * @file
 * Internal declarations of the per-ISA kernel entry points.
 *
 * Each kernel lives in its own translation unit compiled with exactly
 * the ISA flags it needs (see src/arch/CMakeLists.txt); this header
 * deliberately contains no intrinsics so it can be included from the
 * portable dispatch code. The ODRIPS_HAVE_* macros are defined by the
 * build for kernels whose flags the compiler accepted.
 */

#ifndef ODRIPS_ARCH_CRYPTO_KERNELS_HH
#define ODRIPS_ARCH_CRYPTO_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace odrips::arch
{

// -- portable reference kernels (always present) ------------------------

void sha256CompressScalar(std::uint32_t *state, const std::uint8_t *blocks,
                          std::size_t count);
void sha256Compress8Scalar(std::uint32_t *states, const std::uint8_t *blocks,
                           std::size_t stride, std::size_t count);
void speckEncryptBatchScalar(const std::uint64_t *roundKeys,
                             std::uint64_t *xy, std::size_t count);

#if defined(ODRIPS_HAVE_SSE4_KERNELS)
/** Single-stream compress with a 4-lane SSE4.1 message schedule. */
void sha256CompressSse4(std::uint32_t *state, const std::uint8_t *blocks,
                        std::size_t count);
/** 2-lane SSE SPECK CTR batch. */
void speckEncryptBatchSse4(const std::uint64_t *roundKeys,
                           std::uint64_t *xy, std::size_t count);
#endif

#if defined(ODRIPS_HAVE_AVX2_KERNELS)
/** Single-stream compress with an 8-lane AVX2 message schedule. */
void sha256CompressAvx2(std::uint32_t *state, const std::uint8_t *blocks,
                        std::size_t count);
/** True 8-way multi-buffer compress (one stream per 32-bit lane). */
void sha256Compress8Avx2(std::uint32_t *states, const std::uint8_t *blocks,
                         std::size_t stride, std::size_t count);
/** 4-lane AVX2 SPECK CTR batch. */
void speckEncryptBatchAvx2(const std::uint64_t *roundKeys,
                           std::uint64_t *xy, std::size_t count);
#endif

#if defined(ODRIPS_HAVE_SHANI_KERNELS)
/** Single-stream compress on the x86 SHA extensions. */
void sha256CompressShaNi(std::uint32_t *state, const std::uint8_t *blocks,
                         std::size_t count);
/** 8-stream compress on the SHA extensions, two streams in lockstep. */
void sha256Compress8ShaNi(std::uint32_t *states, const std::uint8_t *blocks,
                          std::size_t stride, std::size_t count);
#endif

} // namespace odrips::arch

#endif // ODRIPS_ARCH_CRYPTO_KERNELS_HH
