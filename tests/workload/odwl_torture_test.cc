/**
 * @file
 * `.odwl` torture suite: a trace file damaged in ANY way — truncated
 * at every byte boundary, any single byte flipped, bad magic/version,
 * semantic range violations hidden behind a recomputed CRC — must be
 * rejected as a unit with a counted error. A corrupt workload is never
 * partially replayed.
 *
 * File layout under surgery (see workload/odwl.cc):
 *   header    = magic(4) version(4) sectionCount(4)        -> 12 bytes
 *   section i = nameLen(8) name crc(4) payloadLen(8) payload
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/checkpoint/serializer.hh"
#include "workload/odwl.hh"

using namespace odrips;

namespace
{

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** A two-section document: mixed population plus a short trace. */
OdwlDocument
fixtureDocument()
{
    OdwlDocument doc;
    doc.population = FleetPopulation::mixedReference();
    RecordedDeviceDay day;
    day.deviceId = 42;
    day.classIndex = 1;
    for (int i = 0; i < 3; ++i) {
        RecordedCycle rec;
        rec.cycle.idleDwell = 1000000 + i;
        rec.cycle.cpuCycles = 5000 + static_cast<std::uint64_t>(i);
        rec.cycle.stallTime = 200 + i;
        rec.cycle.reason = WakeReason::Network;
        rec.cycle.coalesced = static_cast<std::uint32_t>(i);
        rec.phase = static_cast<std::uint32_t>(i % 2);
        day.cycles.push_back(rec);
    }
    doc.traces.push_back(day);
    return doc;
}

std::uint64_t
readLe64(const std::vector<std::uint8_t> &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[off + std::size_t(i)])
             << (8 * i);
    return v;
}

void
writeLe32(std::vector<std::uint8_t> &bytes, std::size_t off,
          std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        bytes[off + std::size_t(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

struct SectionSpan
{
    std::size_t crcOffset = 0;
    std::size_t payloadOffset = 0;
    std::size_t payloadSize = 0;
};

/** Walk the section table to locate @p name (layout in file comment). */
SectionSpan
findSection(const std::vector<std::uint8_t> &bytes,
            const std::string &name)
{
    std::size_t off = 12;
    while (off < bytes.size()) {
        const std::uint64_t nameLen = readLe64(bytes, off);
        off += 8;
        const std::string sectionName(
            reinterpret_cast<const char *>(bytes.data() + off),
            nameLen);
        off += nameLen;
        SectionSpan span;
        span.crcOffset = off;
        off += 4;
        span.payloadSize = readLe64(bytes, off);
        off += 8;
        span.payloadOffset = off;
        off += span.payloadSize;
        if (sectionName == name)
            return span;
    }
    ADD_FAILURE() << "section '" << name << "' not found";
    return {};
}

/** Patch payload bytes and restamp the section CRC so only the
 * semantic validators can reject the edit. */
void
patchPayload(std::vector<std::uint8_t> &bytes, const SectionSpan &span,
             std::size_t offset_in_payload,
             const std::vector<std::uint8_t> &patch)
{
    for (std::size_t i = 0; i < patch.size(); ++i)
        bytes[span.payloadOffset + offset_in_payload + i] = patch[i];
    writeLe32(bytes, span.crcOffset,
              ckpt::crc32(bytes.data() + span.payloadOffset,
                          span.payloadSize));
}

TEST(OdwlTortureTest, RoundTripPreservesEverything)
{
    const OdwlDocument doc = fixtureDocument();
    const OdwlDocument back = readOdwl(writeOdwl(doc));

    EXPECT_EQ(back.population.seed, doc.population.seed);
    ASSERT_EQ(back.population.classes.size(),
              doc.population.classes.size());
    for (std::size_t i = 0; i < doc.population.classes.size(); ++i) {
        const DeviceClass &a = doc.population.classes[i];
        const DeviceClass &b = back.population.classes[i];
        EXPECT_EQ(b.profile.name, a.profile.name);
        EXPECT_EQ(b.weight, a.weight);
        EXPECT_EQ(b.techniques.wakeupOff, a.techniques.wakeupOff);
        EXPECT_EQ(b.techniques.aonIoGate, a.techniques.aonIoGate);
        EXPECT_EQ(b.techniques.contextOffload,
                  a.techniques.contextOffload);
        EXPECT_EQ(b.techniques.contextStorage,
                  a.techniques.contextStorage);
        ASSERT_EQ(b.profile.phases.size(), a.profile.phases.size());
        for (std::size_t p = 0; p < a.profile.phases.size(); ++p) {
            const PhaseSpec &pa = a.profile.phases[p];
            const PhaseSpec &pb = b.profile.phases[p];
            EXPECT_EQ(pb.name, pa.name);
            EXPECT_EQ(pb.hours, pa.hours);
            EXPECT_EQ(pb.heartbeatPeriodSeconds,
                      pa.heartbeatPeriodSeconds);
            EXPECT_EQ(pb.notificationMeanSeconds,
                      pa.notificationMeanSeconds);
            EXPECT_EQ(pb.stormsPerHour, pa.stormsPerHour);
            EXPECT_EQ(pb.stormBurst, pa.stormBurst);
            EXPECT_EQ(pb.sensorWakesPerHour, pa.sensorWakesPerHour);
            EXPECT_EQ(pb.coalescingWindowSeconds,
                      pa.coalescingWindowSeconds);
        }
    }
    ASSERT_EQ(back.traces.size(), doc.traces.size());
    const RecordedDeviceDay &da = doc.traces[0];
    const RecordedDeviceDay &db = back.traces[0];
    EXPECT_EQ(db.deviceId, da.deviceId);
    EXPECT_EQ(db.classIndex, da.classIndex);
    ASSERT_EQ(db.cycles.size(), da.cycles.size());
    for (std::size_t c = 0; c < da.cycles.size(); ++c) {
        EXPECT_EQ(db.cycles[c].cycle.idleDwell,
                  da.cycles[c].cycle.idleDwell);
        EXPECT_EQ(db.cycles[c].cycle.cpuCycles,
                  da.cycles[c].cycle.cpuCycles);
        EXPECT_EQ(db.cycles[c].cycle.stallTime,
                  da.cycles[c].cycle.stallTime);
        EXPECT_EQ(db.cycles[c].cycle.reason, da.cycles[c].cycle.reason);
        EXPECT_EQ(db.cycles[c].cycle.coalesced,
                  da.cycles[c].cycle.coalesced);
        EXPECT_EQ(db.cycles[c].phase, da.cycles[c].phase);
    }
}

TEST(OdwlTortureTest, TruncationAtEveryByteIsRejected)
{
    const std::vector<std::uint8_t> bytes =
        writeOdwl(fixtureDocument());
    resetOdwlRejectedLoads();
    std::uint64_t expected = 0;
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() +
                                                static_cast<long>(keep));
        EXPECT_THROW(readOdwl(cut), OdwlError) << "keep=" << keep;
        ++expected;
    }
    EXPECT_EQ(odwlRejectedLoads(), expected);
}

TEST(OdwlTortureTest, EveryFlippedByteIsRejected)
{
    // Any single flipped byte must be caught by one of the layers:
    // magic/version, the section-table framing, the per-section CRC,
    // or end-of-buffer accounting. No flip may load quietly.
    const std::vector<std::uint8_t> bytes =
        writeOdwl(fixtureDocument());
    for (std::size_t off = 0; off < bytes.size(); ++off) {
        std::vector<std::uint8_t> bad = bytes;
        bad[off] ^= 0xff;
        EXPECT_THROW(readOdwl(bad), OdwlError) << "offset " << off;
    }
}

TEST(OdwlTortureTest, TrailingGarbageIsRejected)
{
    std::vector<std::uint8_t> bytes = writeOdwl(fixtureDocument());
    bytes.push_back(0x00);
    EXPECT_THROW(readOdwl(bytes), OdwlError);
}

TEST(OdwlTortureTest, EmptyAndTinyInputsAreRejected)
{
    EXPECT_THROW(readOdwl({}), OdwlError);
    EXPECT_THROW(readOdwl({0x4f, 0x44}), OdwlError);
}

TEST(OdwlTortureTest, SemanticViolationsBehindValidCrcAreRejected)
{
    // CRC restamped after each patch: these exercise the semantic
    // validators, not the checksum.
    const std::vector<std::uint8_t> good =
        writeOdwl(fixtureDocument());

    {
        // traces payload: dayCount(4) deviceId(8) classIndex(4) ...
        std::vector<std::uint8_t> bad = good;
        const SectionSpan traces = findSection(bad, "traces");
        patchPayload(bad, traces, 12, {0xff, 0xff, 0xff, 0xff});
        EXPECT_THROW(readOdwl(bad), OdwlError) << "classIndex range";
    }
    {
        // ... cycleCount(8) then idleDwell(8): set its sign bit.
        std::vector<std::uint8_t> bad = good;
        const SectionSpan traces = findSection(bad, "traces");
        patchPayload(bad, traces, 24 + 7, {0x80});
        EXPECT_THROW(readOdwl(bad), OdwlError) << "negative dwell";
    }
    {
        // ... cpuCycles(8) stallTime(8) then reason(1): out of range.
        std::vector<std::uint8_t> bad = good;
        const SectionSpan traces = findSection(bad, "traces");
        patchPayload(bad, traces, 24 + 24, {0x07});
        EXPECT_THROW(readOdwl(bad), OdwlError) << "wake reason range";
    }
}

TEST(OdwlTortureTest, InvalidTechniqueComboIsRejected)
{
    // The writer does not validate; the reader must (mirroring
    // TechniqueSet::validate): AON IO gating without wake-up
    // migration is not a buildable configuration.
    OdwlDocument doc;
    doc.population = FleetPopulation::mixedReference();
    doc.population.classes[0].techniques.aonIoGate = true;
    doc.population.classes[0].techniques.wakeupOff = false;
    EXPECT_THROW(readOdwl(writeOdwl(doc)), OdwlError);
}

TEST(OdwlTortureTest, DegeneratePopulationsAreRejected)
{
    {
        OdwlDocument doc; // no classes at all
        EXPECT_THROW(readOdwl(writeOdwl(doc)), OdwlError);
    }
    {
        OdwlDocument doc;
        doc.population = FleetPopulation::mixedReference();
        doc.population.classes[0].profile.phases.clear();
        EXPECT_THROW(readOdwl(writeOdwl(doc)), OdwlError);
    }
    {
        OdwlDocument doc;
        doc.population = FleetPopulation::mixedReference();
        doc.population.classes[0].weight = 0.0;
        EXPECT_THROW(readOdwl(writeOdwl(doc)), OdwlError);
    }
    {
        OdwlDocument doc;
        doc.population = FleetPopulation::mixedReference();
        doc.population.classes[0].profile.phases[0].scalableFraction =
            1.5;
        EXPECT_THROW(readOdwl(writeOdwl(doc)), OdwlError);
    }
}

TEST(OdwlTortureTest, RejectionCounterCountsEveryFailure)
{
    const std::vector<std::uint8_t> bytes =
        writeOdwl(fixtureDocument());
    resetOdwlRejectedLoads();

    // A clean load does not count.
    (void)readOdwl(bytes);
    EXPECT_EQ(odwlRejectedLoads(), 0u);

    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    for (int i = 0; i < 3; ++i)
        EXPECT_THROW(readOdwl(bad), OdwlError);
    EXPECT_EQ(odwlRejectedLoads(), 3u);
}

TEST(OdwlTortureTest, FileRoundTripAndOnDiskCorruption)
{
    const std::string path = ::testing::TempDir() + "odwl_torture_fleet.odwl";
    writeOdwlFile(path, fixtureDocument());

    const OdwlDocument back = readOdwlFile(path);
    EXPECT_EQ(back.population.classes.size(),
              fixtureDocument().population.classes.size());

    std::vector<std::uint8_t> bytes = readBytes(path);
    ASSERT_GT(bytes.size(), 30u);
    bytes[30] ^= 0xff;
    writeBytes(path, bytes);
    EXPECT_THROW(readOdwlFile(path), OdwlError);

    bytes.resize(17);
    writeBytes(path, bytes);
    EXPECT_THROW(readOdwlFile(path), OdwlError);
    std::remove(path.c_str());
}

TEST(OdwlTortureTest, MissingFileIsACountedRejection)
{
    resetOdwlRejectedLoads();
    EXPECT_THROW(readOdwlFile("/nonexistent/odrips/fleet.odwl"),
                 OdwlError);
    EXPECT_EQ(odwlRejectedLoads(), 1u);
}

} // namespace
