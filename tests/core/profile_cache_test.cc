/**
 * @file
 * Tests for the memoised cycle-profile cache: key construction is a
 * content hash (any config field change re-keys), cached results are
 * bit-identical to fresh measurements, and the counters track hits and
 * rebuilds.
 */

#include <gtest/gtest.h>

#include "core/profile_cache.hh"
#include "platform/techniques.hh"

using namespace odrips;

namespace
{

TEST(ProfileKeyTest, DeterministicForEqualInputs)
{
    const PlatformConfig cfg = skylakeConfig();
    const TechniqueSet odrips_set = TechniqueSet::odrips();
    const ProfileKey a = profileKey(cfg, odrips_set);
    const ProfileKey b = profileKey(cfg, odrips_set);
    EXPECT_EQ(a, b);
}

TEST(ProfileKeyTest, AnyConfigFieldChangeRekeys)
{
    const PlatformConfig base = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::baseline();
    const ProfileKey ref = profileKey(base, techniques);

    PlatformConfig cfg = base;
    cfg.coreFrequencyHz = 1.0e9;
    EXPECT_FALSE(profileKey(cfg, techniques) == ref);

    cfg = base;
    cfg.workload.seed = 99;
    EXPECT_FALSE(profileKey(cfg, techniques) == ref);

    cfg = base;
    cfg.dram.dataRateHz = 1.067e9;
    EXPECT_FALSE(profileKey(cfg, techniques) == ref);

    cfg = base;
    cfg.timings.vrRampUp += 1;
    EXPECT_FALSE(profileKey(cfg, techniques) == ref);

    cfg = base;
    cfg.name = "other";
    EXPECT_FALSE(profileKey(cfg, techniques) == ref);
}

TEST(ProfileKeyTest, TechniqueChangeRekeys)
{
    const PlatformConfig cfg = skylakeConfig();
    const ProfileKey baseline_key =
        profileKey(cfg, TechniqueSet::baseline());
    EXPECT_FALSE(profileKey(cfg, TechniqueSet::odrips()) == baseline_key);
    EXPECT_FALSE(profileKey(cfg, TechniqueSet::wakeupOffOnly()) ==
                 baseline_key);
}

TEST(CycleProfileCacheTest, HitReturnsIdenticalProfile)
{
    CycleProfileCache cache;
    const PlatformConfig cfg = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::odrips();

    const CyclePowerProfile cold = cache.getOrMeasure(cfg, techniques);
    const CyclePowerProfile warm = cache.getOrMeasure(cfg, techniques);

    const CycleProfileCacheStats stats = cache.statistics();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    // The measurement is deterministic, so cached == fresh, exactly.
    const CyclePowerProfile fresh =
        measureCycleProfileUncached(cfg, techniques);
    for (const CyclePowerProfile &p : {cold, warm}) {
        EXPECT_EQ(p.idlePower, fresh.idlePower);
        EXPECT_EQ(p.activePower, fresh.activePower);
        EXPECT_EQ(p.stallPower, fresh.stallPower);
        EXPECT_EQ(p.entryLatency, fresh.entryLatency);
        EXPECT_EQ(p.exitLatency, fresh.exitLatency);
        EXPECT_EQ(p.entryEnergy, fresh.entryEnergy);
        EXPECT_EQ(p.exitEnergy, fresh.exitEnergy);
        EXPECT_EQ(p.contextSaveLatency, fresh.contextSaveLatency);
        EXPECT_EQ(p.contextRestoreLatency, fresh.contextRestoreLatency);
        EXPECT_EQ(p.contextIntact, fresh.contextIntact);
    }
}

TEST(CycleProfileCacheTest, DistinctConfigsGetDistinctEntries)
{
    CycleProfileCache cache;
    PlatformConfig cfg = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::baseline();

    cache.getOrMeasure(cfg, techniques);
    cfg.coreFrequencyHz = 1.2e9;
    cache.getOrMeasure(cfg, techniques);

    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_EQ(cache.statistics().misses, 2u);
    EXPECT_EQ(cache.statistics().hits, 0u);
}

TEST(CycleProfileCacheTest, ClearDropsEntriesAndCounters)
{
    CycleProfileCache cache;
    const PlatformConfig cfg = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::baseline();

    cache.getOrMeasure(cfg, techniques);
    cache.getOrMeasure(cfg, techniques);
    EXPECT_EQ(cache.statistics().inserts, 1u);
    cache.clear();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.statistics().hits, 0u);
    EXPECT_EQ(cache.statistics().misses, 0u);
    EXPECT_EQ(cache.statistics().inserts, 0u);

    // A cleared cache misses again: every call after clear() is cold.
    cache.getOrMeasure(cfg, techniques);
    EXPECT_EQ(cache.statistics().misses, 1u);
    EXPECT_EQ(cache.statistics().hits, 0u);
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(CycleProfileCacheTest, GlobalEntryPointIsMemoised)
{
    const PlatformConfig cfg = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::aonIoGated();

    // Warm whatever state other tests left behind, then verify the
    // second identical call is a pure hit.
    measureCycleProfile(cfg, techniques);
    const CycleProfileCacheStats before =
        CycleProfileCache::global().statistics();
    measureCycleProfile(cfg, techniques);
    const CycleProfileCacheStats after =
        CycleProfileCache::global().statistics();

    if (CycleProfileCache::enabled()) {
        EXPECT_EQ(after.hits, before.hits + 1);
        EXPECT_EQ(after.misses, before.misses);
    }
}

} // namespace
