#include "arch/dispatch.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "arch/cpu_features.hh"
#include "arch/crypto_kernels.hh"

namespace odrips::arch
{

namespace
{

CryptoKernels
makeScalar()
{
    return {DispatchLevel::Scalar, "scalar", "scalar", "scalar", "scalar",
            sha256CompressScalar, sha256Compress8Scalar,
            speckEncryptBatchScalar};
}

#if defined(ODRIPS_HAVE_SSE4_KERNELS)
CryptoKernels
makeSse4()
{
    // No dedicated multi-stream kernel at this level: the 8-way path
    // inherits the scalar reference (still correct, just not faster).
    return {DispatchLevel::Sse4, "sse4", "sse4-msg-sched", "scalar",
            "sse4-x2", sha256CompressSse4, sha256Compress8Scalar,
            speckEncryptBatchSse4};
}
#endif

#if defined(ODRIPS_HAVE_AVX2_KERNELS)
CryptoKernels
makeAvx2()
{
    return {DispatchLevel::Avx2, "avx2", "avx2-msg-sched", "avx2-8lane",
            "avx2-x4", sha256CompressAvx2, sha256Compress8Avx2,
            speckEncryptBatchAvx2};
}
#endif

bool
haveSse4()
{
#if defined(ODRIPS_HAVE_SSE4_KERNELS)
    return cpuFeatures().sse41;
#else
    return false;
#endif
}

bool
haveAvx2()
{
#if defined(ODRIPS_HAVE_AVX2_KERNELS)
    return cpuFeatures().avx2;
#else
    return false;
#endif
}

bool
haveShaNi()
{
#if defined(ODRIPS_HAVE_SHANI_KERNELS)
    return cpuFeatures().shaNi;
#else
    return false;
#endif
}

/** Best-of-everything table ("native"). */
CryptoKernels
makeNative()
{
    CryptoKernels k = makeScalar();
#if defined(ODRIPS_HAVE_SSE4_KERNELS)
    if (haveSse4()) {
        k = makeSse4();
    }
#endif
#if defined(ODRIPS_HAVE_AVX2_KERNELS)
    if (haveAvx2()) {
        k = makeAvx2();
    }
#endif
#if defined(ODRIPS_HAVE_SHANI_KERNELS)
    // SHA-NI beats the AVX2 8-lane kernel on the MEE's 8-stream,
    // 2-block MACs too: two streams in lockstep, four pairs per call.
    if (haveShaNi()) {
        k.sha256Compress = sha256CompressShaNi;
        k.sha256Name = "sha_ni";
        k.sha256Compress8 = sha256Compress8ShaNi;
        k.sha256x8Name = "sha_ni-x2";
    }
#endif
    k.level = DispatchLevel::Native;
    k.levelName = "native";
    return k;
}

/** The four resolved tables, built once. */
const CryptoKernels &
tableFor(DispatchLevel level)
{
    static const CryptoKernels scalar = makeScalar();
#if defined(ODRIPS_HAVE_SSE4_KERNELS)
    static const CryptoKernels sse4 =
        haveSse4() ? makeSse4() : makeScalar();
#else
    static const CryptoKernels &sse4 = scalar;
#endif
#if defined(ODRIPS_HAVE_AVX2_KERNELS)
    static const CryptoKernels avx2 = haveAvx2() ? makeAvx2() : sse4;
#else
    static const CryptoKernels &avx2 = sse4;
#endif
    static const CryptoKernels native = makeNative();

    switch (level) {
    case DispatchLevel::Scalar:
        return scalar;
    case DispatchLevel::Sse4:
        return sse4;
    case DispatchLevel::Avx2:
        return avx2;
    case DispatchLevel::Native:
        return native;
    }
    return scalar;
}

std::atomic<const CryptoKernels *> active{nullptr};

const CryptoKernels *
resolveInitial()
{
    DispatchLevel level = DispatchLevel::Native;
    const char *env = std::getenv("ODRIPS_DISPATCH");
    if (env != nullptr && *env != '\0') {
        if (!parseDispatchLevel(env, level)) {
            std::fprintf(stderr,
                         "odrips: ODRIPS_DISPATCH=%s is not one of "
                         "scalar|sse4|avx2|native; using native\n",
                         env);
            level = DispatchLevel::Native;
        } else if (!levelSupported(level)) {
            std::fprintf(stderr,
                         "odrips: ODRIPS_DISPATCH=%s not supported by "
                         "this CPU/build (%s); clamping to '%s'\n",
                         env, cpuFeatureString().c_str(),
                         tableFor(level).levelName);
        }
    }
    return &tableFor(level);
}

} // namespace

bool
parseDispatchLevel(const char *name, DispatchLevel &out)
{
    if (std::strcmp(name, "scalar") == 0)
        out = DispatchLevel::Scalar;
    else if (std::strcmp(name, "sse4") == 0)
        out = DispatchLevel::Sse4;
    else if (std::strcmp(name, "avx2") == 0)
        out = DispatchLevel::Avx2;
    else if (std::strcmp(name, "native") == 0)
        out = DispatchLevel::Native;
    else
        return false;
    return true;
}

bool
levelSupported(DispatchLevel level)
{
    switch (level) {
    case DispatchLevel::Scalar:
    case DispatchLevel::Native:
        return true;
    case DispatchLevel::Sse4:
        return haveSse4();
    case DispatchLevel::Avx2:
        return haveAvx2();
    }
    return false;
}

const CryptoKernels &
kernelsFor(DispatchLevel level)
{
    return tableFor(level);
}

const CryptoKernels &
activeKernels()
{
    const CryptoKernels *k = active.load(std::memory_order_acquire);
    if (k == nullptr) {
        // First use (single-threaded in practice: process start-up).
        // A benign race would just resolve the same table twice.
        k = resolveInitial();
        active.store(k, std::memory_order_release);
    }
    return *k;
}

DispatchLevel
setDispatchLevel(DispatchLevel level)
{
    const DispatchLevel previous = activeKernels().level;
    active.store(&tableFor(level), std::memory_order_release);
    return previous;
}

} // namespace odrips::arch
