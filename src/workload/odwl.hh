/**
 * @file
 * The `.odwl` replayable workload trace format.
 *
 * An ODWL file carries a fleet population (the weighted profile x
 * technique classes plus the population seed) and, optionally,
 * pre-expanded device-day cycle traces. The encoding follows the same
 * discipline as simulator snapshots: ckpt::Writer
 * / ckpt::Reader little-endian primitives, named sections, and a
 * CRC-32 per section payload, so a truncated or bit-flipped file is
 * rejected as a unit — validation (magic, version, CRCs, expectEnd,
 * semantic ranges, TechniqueSet::validate) completes before anything
 * is returned, and every rejection increments a process-wide counter
 * that the torture tests and campaign telemetry read. A corrupt trace
 * is never partially replayed.
 */

#ifndef ODRIPS_WORKLOAD_ODWL_HH
#define ODRIPS_WORKLOAD_ODWL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/user_profile.hh"

namespace odrips
{

/** Raised on any malformed, truncated, or corrupted .odwl input. */
class OdwlError : public std::runtime_error
{
  public:
    explicit OdwlError(const std::string &what) : std::runtime_error(what)
    {}
};

/** Rejected .odwl loads since process start (or the last reset). */
std::uint64_t odwlRejectedLoads();
void resetOdwlRejectedLoads();

/** One recorded cycle with the phase it landed in. */
struct RecordedCycle
{
    StandbyCycle cycle;
    std::uint32_t phase = 0;
};

/** One device-day expanded to its cycle stream. */
struct RecordedDeviceDay
{
    std::uint64_t deviceId = 0;
    std::uint32_t classIndex = 0;
    std::vector<RecordedCycle> cycles;
};

/** In-memory form of an .odwl file. */
struct OdwlDocument
{
    FleetPopulation population;
    std::vector<RecordedDeviceDay> traces; ///< optional
};

/** Encode to the on-disk byte layout. */
std::vector<std::uint8_t> writeOdwl(const OdwlDocument &doc);

/**
 * Decode and fully validate; throws OdwlError (and counts the
 * rejection) on any defect. Never returns a partial document.
 */
OdwlDocument readOdwl(const std::vector<std::uint8_t> &bytes);

/** File wrappers around writeOdwl()/readOdwl(). */
void writeOdwlFile(const std::string &path, const OdwlDocument &doc);
OdwlDocument readOdwlFile(const std::string &path);

} // namespace odrips

#endif // ODRIPS_WORKLOAD_ODWL_HH
