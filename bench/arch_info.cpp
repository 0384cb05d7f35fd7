/**
 * @file
 * Prints the resolved crypto dispatch configuration as one JSON object:
 * active level, kernel names (single- and 8-stream SHA-256, SPECK),
 * and the probed CPU feature flags.
 * scripts/bench.sh embeds this (plus the git SHA) in
 * BENCH_kernel.json so every tracked number records the hardware and
 * kernel tier that produced it. Honors ODRIPS_DISPATCH.
 */

#include <cstdio>

#include "arch/cpu_features.hh"
#include "arch/dispatch.hh"

int
main()
{
    const odrips::arch::CryptoKernels &k = odrips::arch::activeKernels();
    std::printf("{\"dispatch\": \"%s\", \"sha256_kernel\": \"%s\", "
                "\"sha256x8_kernel\": \"%s\", \"speck_kernel\": \"%s\", "
                "\"cpu_features\": \"%s\"}\n",
                k.levelName, k.sha256Name, k.sha256x8Name, k.speckName,
                odrips::arch::cpuFeatureString().c_str());
    return 0;
}
