/**
 * @file
 * SHA-256 on the x86 SHA extensions (SHA-NI).
 *
 * The sha256rnds2 instruction retires two rounds per issue with the
 * message schedule kept in XMM registers via sha256msg1/msg2, so a
 * single stream compresses at several times the scalar rate. Written
 * as a loop over the sixteen 4-round groups; slot indices follow the
 * standard identities (the schedule for group g+1 needs raw words of
 * groups g and g-1 plus the msg1-accumulated group g-3).
 *
 * The 8-stream entry point runs the streams two at a time in
 * lockstep: the two rnds2 dependency chains interleave, so one
 * stream's rounds issue while the other's are in flight.
 *
 * Compiled with -msha -msse4.1; only called after the CPUID probe.
 */

#include <immintrin.h>

#include "arch/crypto_kernels.hh"
#include "arch/sha256_common.hh"

#if defined(ODRIPS_HAVE_SHANI_KERNELS)

namespace odrips::arch
{

namespace
{

/**
 * Compress @p count blocks of @p N independent streams in lockstep:
 * stream n's 8-word state is at @p states[n], its blocks at
 * @p blocks[n]. Every loop over n is fully unrolled by the compiler.
 */
template <int N>
inline void
compressLockstep(std::uint32_t *const *states,
                 const std::uint8_t *const *blocks, std::size_t count)
{
    const __m128i bswapMask =
        _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12);

    // Repack each linear state into the ABEF/CDGH register layout the
    // rnds2 instruction expects.
    __m128i state0[N];
    __m128i state1[N];
    const std::uint8_t *in[N];
    for (int n = 0; n < N; ++n) {
        __m128i tmp =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(states[n]));
        state1[n] = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(states[n] + 4));
        tmp = _mm_shuffle_epi32(tmp, 0xB1);
        state1[n] = _mm_shuffle_epi32(state1[n], 0x1B);
        state0[n] = _mm_alignr_epi8(tmp, state1[n], 8);
        state1[n] = _mm_blend_epi16(state1[n], tmp, 0xF0);
        in[n] = blocks[n];
    }

    while (count > 0) {
        __m128i save0[N];
        __m128i save1[N];
        __m128i msg[N][4];
        for (int n = 0; n < N; ++n) {
            save0[n] = state0[n];
            save1[n] = state1[n];
            for (int j = 0; j < 4; ++j)
                msg[n][j] = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(in[n] + 16 * j)),
                    bswapMask);
        }

        // Fully unrolled, the slot indices are constants and the message
        // words of both streams stay in registers.
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            const __m128i k = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(sha256K.data() + 4 * g));
            __m128i m[N];
            for (int n = 0; n < N; ++n) {
                m[n] = _mm_add_epi32(msg[n][g & 3], k);
                state1[n] =
                    _mm_sha256rnds2_epu32(state1[n], state0[n], m[n]);
            }
            if (g >= 3 && g <= 14)
                for (int n = 0; n < N; ++n) {
                    const __m128i shifted = _mm_alignr_epi8(
                        msg[n][g & 3], msg[n][(g + 3) & 3], 4);
                    msg[n][(g + 1) & 3] = _mm_sha256msg2_epu32(
                        _mm_add_epi32(msg[n][(g + 1) & 3], shifted),
                        msg[n][g & 3]);
                }
            for (int n = 0; n < N; ++n) {
                m[n] = _mm_shuffle_epi32(m[n], 0x0E);
                state0[n] =
                    _mm_sha256rnds2_epu32(state0[n], state1[n], m[n]);
            }
            if (g >= 1 && g <= 12)
                for (int n = 0; n < N; ++n)
                    msg[n][(g + 3) & 3] = _mm_sha256msg1_epu32(
                        msg[n][(g + 3) & 3], msg[n][g & 3]);
        }

        for (int n = 0; n < N; ++n) {
            state0[n] = _mm_add_epi32(state0[n], save0[n]);
            state1[n] = _mm_add_epi32(state1[n], save1[n]);
            in[n] += 64;
        }
        --count;
    }

    // Unpack ABEF/CDGH back to the linear layout.
    for (int n = 0; n < N; ++n) {
        const __m128i tmp = _mm_shuffle_epi32(state0[n], 0x1B);
        state1[n] = _mm_shuffle_epi32(state1[n], 0xB1);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(states[n]),
                         _mm_blend_epi16(tmp, state1[n], 0xF0));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(states[n] + 4),
                         _mm_alignr_epi8(state1[n], tmp, 8));
    }
}

} // namespace

void
sha256CompressShaNi(std::uint32_t *state, const std::uint8_t *blocks,
                    std::size_t count)
{
    compressLockstep<1>(&state, &blocks, count);
}

void
sha256Compress8ShaNi(std::uint32_t *states, const std::uint8_t *blocks,
                     std::size_t stride, std::size_t count)
{
    for (std::size_t i = 0; i < 8; i += 2) {
        std::uint32_t *const pair[2] = {states + 8 * i,
                                        states + 8 * (i + 1)};
        const std::uint8_t *const in[2] = {blocks + i * stride,
                                           blocks + (i + 1) * stride};
        compressLockstep<2>(pair, in, count);
    }
}

} // namespace odrips::arch

#endif // ODRIPS_HAVE_SHANI_KERNELS
