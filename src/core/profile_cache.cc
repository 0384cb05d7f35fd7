#include "core/profile_cache.hh"

#include <cstdlib>
#include <cstring>
#include <ostream>
#include <string>
#include <type_traits>

#include "stats/report.hh"
#include "stats/sweep_meter.hh"

namespace odrips
{

namespace
{

/**
 * Two-lane byte hasher: lane `lo` is FNV-1a/64, lane `hi` runs the
 * same bytes through a multiply-xorshift mix with a different seed.
 * 128 bits of key make accidental collisions between distinct configs
 * a non-concern for memoisation.
 */
class KeyHasher
{
  public:
    void
    absorbBytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            lo = (lo ^ p[i]) * 0x100000001b3ULL;
            hi ^= p[i];
            hi *= 0xff51afd7ed558ccdULL;
            hi ^= hi >> 33;
        }
    }

    void
    absorb(std::uint64_t v)
    {
        absorbBytes(&v, sizeof(v));
    }

    void
    absorb(double v)
    {
        // Hash the bit representation: distinguishes every distinct
        // value (including ±0.0, which never appear as config knobs).
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        absorb(bits);
    }

    void absorb(bool v) { absorb(std::uint64_t{v ? 1u : 0u}); }
    void absorb(unsigned v) { absorb(std::uint64_t{v}); }
    void absorb(Milliwatts v) { absorb(v.watts()); }
    void absorb(Tick v) { absorb(static_cast<std::uint64_t>(v)); }

    template <typename E>
    std::enable_if_t<std::is_enum_v<E>>
    absorb(E v)
    {
        absorb(static_cast<std::uint64_t>(v));
    }

    void
    absorb(const std::string &s)
    {
        absorb(std::uint64_t{s.size()});
        absorbBytes(s.data(), s.size());
    }

    ProfileKey
    key() const
    {
        return ProfileKey{lo, hi};
    }

  private:
    std::uint64_t lo = 0xcbf29ce484222325ULL;
    std::uint64_t hi = 0x9ae16a3b2f90404fULL;
};

void
absorbConfig(KeyHasher &h, const DramConfig &c)
{
    h.absorb(c.dataRateHz);
    h.absorb(c.channels);
    h.absorb(c.busBytes);
    h.absorb(c.capacityBytes);
    h.absorb(c.accessLatencyNs);
    h.absorb(c.selfRefreshEntryNs);
    h.absorb(c.selfRefreshExitNs);
    h.absorb(c.selfRefreshPower);
    h.absorb(c.idlePower);
    h.absorb(c.activePower);
    h.absorb(c.energyPerByte);
    h.absorb(c.ckeDrivePower);
}

void
absorbConfig(KeyHasher &h, const PcmConfig &c)
{
    h.absorb(c.capacityBytes);
    h.absorb(c.readLatencyNs);
    h.absorb(c.writeLatencyNs);
    h.absorb(c.readBandwidth);
    h.absorb(c.writeBandwidth);
    h.absorb(c.idlePower);
    h.absorb(c.standbyPower);
    h.absorb(c.readEnergyPerByte);
    h.absorb(c.writeEnergyPerByte);
    h.absorb(c.enduranceWrites);
    h.absorb(c.trafficReadFraction);
}

void
absorbConfig(KeyHasher &h, const DripsPowerBudget &c)
{
    h.absorb(c.procWakeTimer);
    h.absorb(c.procAonIo);
    h.absorb(c.srSramSa);
    h.absorb(c.srSramCores);
    h.absorb(c.bootSram);
    h.absorb(c.chipsetAon);
    h.absorb(c.chipsetFastClock);
    h.absorb(c.xtal24);
    h.absorb(c.xtal32);
    h.absorb(c.boardOther);
}

void
absorbConfig(KeyHasher &h, const ActivePowerBudget &c)
{
    h.absorb(c.coresGfxBase);
    h.absorb(c.systemAgent);
    h.absorb(c.llc);
    h.absorb(c.pmu);
    h.absorb(c.chipsetActive);
    h.absorb(c.boardActive);
    h.absorb(c.stallPowerFraction);
    h.absorb(c.transitionNominal);
    h.absorb(c.activeMemoryTraffic);
}

void
absorbConfig(KeyHasher &h, const VfCurve &c)
{
    h.absorb(c.vminVolts);
    h.absorb(c.vminCeilingHz);
    h.absorb(c.slopeVoltsPerGHz);
    h.absorb(c.maxFrequencyHz);
}

void
absorbConfig(KeyHasher &h, const FlowTimings &c)
{
    h.absorb(c.baselineEntry);
    h.absorb(c.baselineExit);
    h.absorb(c.vrRampUp);
    h.absorb(c.vrRampDown);
    h.absorb(c.pmuGate);
    h.absorb(c.wakeDetect);
    h.absorb(c.firmwareDecision);
    h.absorb(c.xtalRestart);
    h.absorb(c.fetSwitch);
    h.absorb(c.wakeupEntryFirmware);
    h.absorb(c.wakeupExitFirmware);
    h.absorb(c.aonGateEntryFirmware);
    h.absorb(c.aonGateExitFirmware);
    h.absorb(c.ctxEntryFirmware);
    h.absorb(c.ctxExitFirmware);
    h.absorb(c.bootFsmRestore);
}

void
absorbConfig(KeyHasher &h, const WorkloadConfig &c)
{
    h.absorb(c.idleDwellSeconds);
    h.absorb(c.activeMinSeconds);
    h.absorb(c.activeMaxSeconds);
    h.absorb(c.scalableFraction);
    h.absorb(c.networkWakeMeanSeconds);
    h.absorb(c.coalescingWindowSeconds);
    h.absorb(c.seed);
}

} // namespace

ProfileKey
profileKey(const PlatformConfig &cfg, const TechniqueSet &techniques)
{
    KeyHasher h;

    h.absorb(cfg.name);
    h.absorb(cfg.processorNode);
    h.absorb(cfg.chipsetNode);
    h.absorb(cfg.coreFrequencyHz);
    absorbConfig(h, cfg.vfCurve);
    h.absorb(cfg.llcBytes);
    h.absorb(cfg.llcDirtyFraction);
    h.absorb(cfg.saContextBytes);
    h.absorb(cfg.coresContextBytes);
    h.absorb(cfg.bootContextBytes);
    h.absorb(cfg.xtal24Ppm);
    h.absorb(cfg.xtal32Ppm);
    h.absorb(cfg.timerPrecisionCycles);
    h.absorb(cfg.memoryKind);
    absorbConfig(h, cfg.dram);
    absorbConfig(h, cfg.pcm);
    h.absorb(cfg.sgxRegionBase);
    h.absorb(cfg.sgxRegionSize);
    h.absorb(std::uint64_t{cfg.meeCacheNodes});
    h.absorb(std::uint64_t{cfg.meeCacheAssociativity});
    h.absorb(cfg.contextStorage);
    h.absorb(cfg.emramPessimism);
    h.absorb(cfg.srSramResidualFraction);
    h.absorb(cfg.emramResidualFraction);
    absorbConfig(h, cfg.dripsPower);
    absorbConfig(h, cfg.activePower);
    absorbConfig(h, cfg.timings);
    absorbConfig(h, cfg.workload);
    h.absorb(cfg.pdLowEfficiency);
    h.absorb(cfg.pdHighEfficiency);
    h.absorb(cfg.pdThreshold);
    h.absorb(cfg.gpioPins);
    h.absorb(cfg.pmlCyclesPerWord);
    h.absorb(cfg.pmlProtocolCycles);

    h.absorb(techniques.wakeupOff);
    h.absorb(techniques.aonIoGate);
    h.absorb(techniques.contextOffload);
    h.absorb(techniques.contextStorage);

    return h.key();
}

CyclePowerProfile
CycleProfileCache::getOrMeasure(const PlatformConfig &cfg,
                                const TechniqueSet &techniques)
{
    const ProfileKey key = profileKey(cfg, techniques);
    {
        std::lock_guard<std::mutex> guard(mtx);
        const auto it = entries.find(key);
        if (it != entries.end()) {
            ++stats.hits;
            return it->second;
        }
    }

    const CyclePowerProfile profile =
        measureCycleProfileUncached(cfg, techniques);

    std::lock_guard<std::mutex> guard(mtx);
    ++stats.misses;
    if (entries.insert_or_assign(key, profile).second)
        ++stats.inserts;
    return profile;
}

CycleProfileCacheStats
CycleProfileCache::statistics() const
{
    std::lock_guard<std::mutex> guard(mtx);
    return stats;
}

std::size_t
CycleProfileCache::entryCount() const
{
    std::lock_guard<std::mutex> guard(mtx);
    return entries.size();
}

void
CycleProfileCache::clear()
{
    std::lock_guard<std::mutex> guard(mtx);
    entries.clear();
    stats = CycleProfileCacheStats{};
}

CycleProfileCache &
CycleProfileCache::global()
{
    static CycleProfileCache cache;
    static const bool configured = [] {
        // Cache counters appear in every bench's stderr telemetry
        // epilogue (stats::printRunTelemetry).
        stats::addReportSection([](std::ostream &os) {
            const CycleProfileCacheStats s = cache.statistics();
            if (s.calls() == 0)
                return;
            const double rate = static_cast<double>(s.hits) /
                                static_cast<double>(s.calls());
            os << "profile cache: " << s.hits << " hits, " << s.misses
               << " misses, " << s.inserts << " inserts ("
               << cache.entryCount() << " entries, "
               << stats::fmtPercent(rate) << " served from cache)\n";
        });
        return true;
    }();
    (void)configured;
    return cache;
}

bool
CycleProfileCache::enabled()
{
    static const bool on = [] {
        const char *env = std::getenv("ODRIPS_PROFILE_CACHE");
        return env == nullptr || std::strcmp(env, "0") != 0;
    }();
    return on;
}

} // namespace odrips
