/**
 * @file
 * The MEE cache/region shapes the parameterized MEE suites run over:
 * tiny, thrashing and single-set caches that evict in the middle of a
 * burst, caches larger than the tree, the paper's 200 KiB context and
 * a 1 MB region with a 5-level tree.
 */

#ifndef ODRIPS_TESTS_SECURITY_MEE_GEOMETRIES_HH
#define ODRIPS_TESTS_SECURITY_MEE_GEOMETRIES_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace odrips
{

struct MeeGeometry
{
    std::uint64_t regionBytes;
    std::size_t cacheNodes;
    std::size_t associativity;
};

inline constexpr MeeGeometry meeGeometries[] = {
    {4096, 4, 1},          // tiny direct-ish cache
    {4096, 64, 8},         // cache larger than tree
    {64 << 10, 16, 2},     // thrashing cache
    {64 << 10, 128, 8},    // default-ish
    {200 << 10, 128, 8},   // the paper's context size
    {200 << 10, 8, 8},     // single-set cache
    {1 << 20, 256, 4},     // 1 MB region, 5-level tree
};

/** gtest parameter name, e.g. "200kB_8n_8w". */
inline std::string
meeGeometryName(const ::testing::TestParamInfo<MeeGeometry> &info)
{
    return std::to_string(info.param.regionBytes >> 10) + "kB_" +
           std::to_string(info.param.cacheNodes) + "n_" +
           std::to_string(info.param.associativity) + "w";
}

} // namespace odrips

#endif // ODRIPS_TESTS_SECURITY_MEE_GEOMETRIES_HH
