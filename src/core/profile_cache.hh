/**
 * @file
 * Memoised cycle-profile measurements.
 *
 * measureCycleProfile() builds a whole Platform, runs an entry/exit
 * cycle, and throws the platform away — and the break-even sweeps and
 * benches call it with the *same* (PlatformConfig, TechniqueSet) pair
 * over and over. The profile is a pure function of that pair (the
 * platform is constructed fresh inside the measurement and every
 * stochastic input is seeded from the config), so the result can be
 * memoised by a content hash of all the configuration fields.
 *
 * The cache is process-global and thread-safe; parallel sweeps hit it
 * from worker threads. Set ODRIPS_PROFILE_CACHE=0 to bypass it (every
 * call then re-measures, the historical behaviour).
 *
 * The memo is bounded: it holds at most CycleProfileCache::maxEntries
 * profiles (about 0.6 MB) and drops all of them at once when a new
 * one would not fit, so a long stream of distinct design points runs
 * in flat memory. Dropping only costs re-measurements; the counters
 * stay monotonic across it.
 */

#ifndef ODRIPS_CORE_PROFILE_CACHE_HH
#define ODRIPS_CORE_PROFILE_CACHE_HH

#include <cstdint>
#include <map>
#include <mutex>

#include "core/profile.hh"

namespace odrips
{

/** 128-bit content hash of a (PlatformConfig, TechniqueSet) pair. */
struct ProfileKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const ProfileKey &o) const
    {
        return lo == o.lo && hi == o.hi;
    }

    bool
    operator<(const ProfileKey &o) const
    {
        return hi != o.hi ? hi < o.hi : lo < o.lo;
    }
};

/**
 * Hash every field of the configuration pair (including the nested
 * power budgets, flow timings, workload and memory configs) into a
 * ProfileKey. Two configs that differ in any field that can influence
 * the measured profile hash to different keys.
 */
ProfileKey profileKey(const PlatformConfig &cfg,
                      const TechniqueSet &techniques);

/** Cache counters (monotonic; misses count actual re-measurements,
 * inserts count every entry added, including ones a full memo later
 * dropped). */
struct CycleProfileCacheStats
{
    /** Served from the in-memory memo. */
    std::uint64_t hits = 0;
    /** Actually re-measured (the memo missed). */
    std::uint64_t misses = 0;
    /** Entries added to the in-memory memo. */
    std::uint64_t inserts = 0;

    std::uint64_t
    calls() const
    {
        return hits + misses;
    }
};

/** Thread-safe memo of measureCycleProfile results. */
class CycleProfileCache
{
  public:
    /** Most profiles the memo holds before it drops them all. */
    static constexpr std::size_t maxEntries = 4096;

    /**
     * Return the cached profile for (@p cfg, @p techniques), measuring
     * it on a miss. Concurrent misses on the same key may both measure
     * (the results are identical; last insert wins) — the lock is not
     * held across the measurement so parallel sweeps don't serialise.
     */
    CyclePowerProfile getOrMeasure(const PlatformConfig &cfg,
                                   const TechniqueSet &techniques);

    CycleProfileCacheStats statistics() const;

    /** Number of distinct cached profiles (at most maxEntries). */
    std::size_t entryCount() const;

    /** Drop all entries and reset the counters. */
    void clear();

    /** The process-global instance used by measureCycleProfile(). */
    static CycleProfileCache &global();

    /**
     * False when the ODRIPS_PROFILE_CACHE environment variable is "0"
     * (evaluated once per process).
     */
    static bool enabled();

  private:
    mutable std::mutex mtx;
    std::map<ProfileKey, CyclePowerProfile> entries;
    CycleProfileCacheStats stats;
};

} // namespace odrips

#endif // ODRIPS_CORE_PROFILE_CACHE_HH
