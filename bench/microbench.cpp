/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's hot paths: the
 * event queue, the crypto primitives, the MEE context path, and a full
 * standby cycle. These guard the simulator's own performance (a full
 * connected-standby cycle must stay cheap enough for the sweeps).
 */

#include <benchmark/benchmark.h>

#include "arch/dispatch.hh"
#include "core/odrips.hh"
#include "core/profile_cache.hh"
#include "flows/context_fsm.hh"
#include "security/ctr_mode.hh"

using namespace odrips;

namespace
{

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int counter = 0;
        Event tick("tick", [&] {
            if (++counter < 1000)
                eq.scheduleAfter(tick, 100);
        });
        eq.schedule(tick, 100);
        eq.run();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_Sha256(benchmark::State &state)
{
    std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                   0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(Sha256::hash(data.data(), data.size()));
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096);

void
BM_SpeckEncrypt(benchmark::State &state)
{
    Speck128::Key key{};
    key[0] = 1;
    Speck128 cipher(key);
    Block128 block{1, 2};
    for (auto _ : state) {
        block = cipher.encrypt(block);
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_SpeckEncrypt);

/** RAII pin of the crypto dispatch level for a benchmark run. */
class ScopedDispatch
{
  public:
    explicit ScopedDispatch(arch::DispatchLevel level)
        : previous(arch::setDispatchLevel(level))
    {
    }
    ~ScopedDispatch() { arch::setDispatchLevel(previous); }

  private:
    arch::DispatchLevel previous;
};

void
BM_Sha256AtLevel(benchmark::State &state, arch::DispatchLevel level)
{
    ScopedDispatch pin(level);
    std::vector<std::uint8_t> data(4096, 0xA5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(Sha256::hash(data.data(), data.size()));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(data.size()));
}

void
BM_SpeckCtrAtLevel(benchmark::State &state, arch::DispatchLevel level)
{
    ScopedDispatch pin(level);
    Speck128::Key key{};
    key[0] = 7;
    CtrCipher ctr(key);
    std::vector<std::uint8_t> buf(4096, 0x3C);
    for (auto _ : state) {
        ctr.apply(0x1000, 42, buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}

/** One BM_Sha256 / BM_SpeckCtr variant per dispatch level this CPU can
 * actually run, e.g. BM_Sha256/4096/avx2 — so the tracked trajectory
 * shows the win of each kernel tier, not just the native best. */
[[maybe_unused]] const int dispatchBenchRegistrar = [] {
    for (const arch::DispatchLevel level :
         {arch::DispatchLevel::Scalar, arch::DispatchLevel::Sse4,
          arch::DispatchLevel::Avx2, arch::DispatchLevel::Native}) {
        if (!arch::levelSupported(level))
            continue;
        const std::string name = arch::kernelsFor(level).levelName;
        benchmark::RegisterBenchmark(
            ("BM_Sha256/4096/" + name).c_str(), BM_Sha256AtLevel, level);
        benchmark::RegisterBenchmark(
            ("BM_SpeckCtr/4096/" + name).c_str(), BM_SpeckCtrAtLevel,
            level);
    }
    return 0;
}();

void
BM_MeeContextWrite(benchmark::State &state)
{
    Dram dram("d", DramConfig{});
    MeeConfig cfg;
    cfg.dataBase = 1 << 20;
    cfg.dataSize = 200 << 10;
    cfg.metaBase = 8 << 20;
    Mee mee("mee", dram, cfg);
    std::vector<std::uint8_t> context(200 << 10, 0x5A);

    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mee.secureWrite(cfg.dataBase, context.data(), context.size(),
                            0));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(context.size()));
}
BENCHMARK(BM_MeeContextWrite);

void
BM_CtrModeBatched(benchmark::State &state)
{
    Speck128::Key key{};
    key[0] = 7;
    CtrCipher ctr(key);
    std::vector<std::uint8_t> buf(4096, 0x3C);
    for (auto _ : state) {
        ctr.apply(0x1000, 42, buf.data(), buf.size());
        benchmark::DoNotOptimize(buf.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_CtrModeBatched);

void
BM_MeeContextTransfer(benchmark::State &state)
{
    // Full context round trip: secure save (write) plus authenticated
    // restore (read) of the ~200 KB processor context.
    Dram dram("d", DramConfig{});
    MeeConfig cfg;
    cfg.dataBase = 1 << 20;
    cfg.dataSize = 200 << 10;
    cfg.metaBase = 8 << 20;
    Mee mee("mee", dram, cfg);
    std::vector<std::uint8_t> context(200 << 10, 0x5A);
    std::vector<std::uint8_t> restored(context.size());

    for (auto _ : state) {
        mee.secureWrite(cfg.dataBase, context.data(), context.size(), 0);
        bool authentic = false;
        mee.secureRead(cfg.dataBase, restored.data(), restored.size(), 0,
                       authentic);
        if (!authentic)
            state.SkipWithError("context failed authentication");
        benchmark::DoNotOptimize(restored.data());
    }
    state.SetBytesProcessed(state.iterations() * 2 *
                            static_cast<std::int64_t>(context.size()));
}
BENCHMARK(BM_MeeContextTransfer);

/**
 * Context-save cost through the real FSM datapath (SRAM -> MEE ->
 * DRAM), with the given mutation model driving the dirty maps.
 * BM_MeeContextSaveFull regenerates the whole context every cycle
 * (every save is a full save — the historical behaviour);
 * BM_MeeContextSaveIncremental dirties <= 10 % of the lines per cycle,
 * so steady-state saves stream only the dirty runs.
 */
void
contextSaveBench(benchmark::State &state, ContextMutationKind kind)
{
    Logger::quiet(true);
    PlatformConfig cfg = skylakeConfig();
    cfg.contextMutation.kind = kind;
    cfg.contextMutation.dirtyFraction = 0.10;
    Platform p(cfg);
    ContextRegion &sa = p.processor.context.sa();
    ContextRegion &cores = p.processor.context.cores();
    ContextTransferFsm saFsm("sa_fsm", p.processor.saSram,
                             *p.memoryController, 0);
    ContextTransferFsm llcFsm("llc_fsm", p.processor.coresSram,
                              *p.memoryController, cfg.saContextBytes);
    saFsm.setIncremental(true);
    llcFsm.setIncremental(true);

    // Prime the DRAM copies: the first save is always a full one.
    saFsm.saveToSram(sa, 0);
    saFsm.save(sa, 0);
    llcFsm.saveToSram(cores, 0);
    llcFsm.save(cores, 0);

    std::uint64_t bytes = 0;
    for (auto _ : state) {
        p.processor.context.touch();
        saFsm.saveToSram(sa, 0);
        const TransferResult r_sa = saFsm.save(sa, 0);
        llcFsm.saveToSram(cores, 0);
        const TransferResult r_cores = llcFsm.save(cores, 0);
        bytes += r_sa.bytes + r_cores.bytes;
        benchmark::DoNotOptimize(r_sa.latency + r_cores.latency);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}

void
BM_MeeContextSaveFull(benchmark::State &state)
{
    contextSaveBench(state, ContextMutationKind::FullRegenerate);
}
BENCHMARK(BM_MeeContextSaveFull);

void
BM_MeeContextSaveIncremental(benchmark::State &state)
{
    contextSaveBench(state, ContextMutationKind::CsrSubset);
}
BENCHMARK(BM_MeeContextSaveIncremental);

void
BM_CycleProfileCold(benchmark::State &state)
{
    Logger::quiet(true);
    const PlatformConfig cfg = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::odrips();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            measureCycleProfileUncached(cfg, techniques));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleProfileCold);

/**
 * Per-point cost of a sweep whose points share a warmed simulator
 * (8 standby cycles of warm-up, then a one-cycle probe).
 * BM_SweepPointCold builds and warms privately per point — the
 * historical sweep shape; BM_SweepPointWarmFork warms once outside the
 * timed region and forks a checkpoint per point, so each point pays
 * O(state copy) instead of O(warm-up). The tracked ratio between the
 * two is the step function the checkpoint subsystem buys.
 */
void
sweepPointBench(benchmark::State &state, bool warm_forked)
{
    Logger::quiet(true);
    PlatformConfig cfg = skylakeConfig();
    cfg.contextMutation.kind = ContextMutationKind::CsrSubset;
    const TechniqueSet techniques = TechniqueSet::odrips();
    const StandbyTrace warm_trace = StandbyWorkloadGenerator::fixed(
        8, 20 * oneMs, 150 * oneMs, 0.7, 0.8e9);
    const StandbyTrace probe = StandbyWorkloadGenerator::fixed(
        1, 20 * oneMs, 150 * oneMs, 0.7, 0.8e9);

    if (warm_forked) {
        Platform platform(cfg);
        StandbySimulator sim(platform, techniques);
        sim.run(warm_trace);
        const Snapshot snapshot = Snapshot::capture(sim);
        for (auto _ : state) {
            ForkedSimulator child = snapshot.fork();
            benchmark::DoNotOptimize(child.simulator->run(probe));
        }
    } else {
        for (auto _ : state) {
            Platform platform(cfg);
            StandbySimulator sim(platform, techniques);
            sim.run(warm_trace);
            benchmark::DoNotOptimize(sim.run(probe));
        }
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_SweepPointCold(benchmark::State &state)
{
    sweepPointBench(state, false);
}
BENCHMARK(BM_SweepPointCold);

void
BM_SweepPointWarmFork(benchmark::State &state)
{
    sweepPointBench(state, true);
}
BENCHMARK(BM_SweepPointWarmFork);

void
BM_SnapshotCaptureRestore(benchmark::State &state)
{
    // The raw checkpoint primitives: capture the full simulator state
    // and restore it into a second, live simulator.
    Logger::quiet(true);
    PlatformConfig cfg = skylakeConfig();
    cfg.contextMutation.kind = ContextMutationKind::CsrSubset;
    Platform platform(cfg);
    StandbySimulator sim(platform, TechniqueSet::odrips());
    sim.run(StandbyWorkloadGenerator::fixed(2, 20 * oneMs, 150 * oneMs,
                                            0.7, 0.8e9));
    Platform target_platform(cfg);
    StandbySimulator target(target_platform, TechniqueSet::odrips());

    for (auto _ : state) {
        const Snapshot snapshot = Snapshot::capture(sim);
        snapshot.restoreInto(target);
        benchmark::DoNotOptimize(snapshot.image().sections().size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotCaptureRestore);

void
BM_CycleProfileCached(benchmark::State &state)
{
    Logger::quiet(true);
    const PlatformConfig cfg = skylakeConfig();
    const TechniqueSet techniques = TechniqueSet::odrips();
    CycleProfileCache cache;
    cache.getOrMeasure(cfg, techniques); // warm the entry
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.getOrMeasure(cfg, techniques));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CycleProfileCached);

void
BM_FullStandbyCycle(benchmark::State &state)
{
    Logger::quiet(true);
    Platform platform(skylakeConfig());
    StandbyFlows flows(platform, TechniqueSet::odrips());
    for (auto _ : state) {
        // The simulator touches the context after every active window;
        // with the default FullRegenerate model every save stays a
        // full save, as before incremental saves existed.
        platform.processor.context.touch();
        flows.enterIdle();
        platform.eq.run(platform.now() + oneMs);
        flows.exitIdle();
        platform.eq.run(platform.now() + oneMs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullStandbyCycle);

void
BM_FullStandbyCycleIncremental(benchmark::State &state)
{
    // Same cycle, but under the CsrSubset mutation model: steady-state
    // entries save only the dirtied context lines.
    Logger::quiet(true);
    PlatformConfig cfg = skylakeConfig();
    cfg.contextMutation.kind = ContextMutationKind::CsrSubset;
    Platform platform(cfg);
    StandbyFlows flows(platform, TechniqueSet::odrips());
    for (auto _ : state) {
        platform.processor.context.touch();
        flows.enterIdle();
        platform.eq.run(platform.now() + oneMs);
        flows.exitIdle();
        platform.eq.run(platform.now() + oneMs);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullStandbyCycleIncremental);

void
BM_StepCalibration(benchmark::State &state)
{
    Crystal fast("f", 24.0e6, 18.0, Milliwatts::fromWatts(0.0));
    Crystal slow("s", 32768.0, -35.0, Milliwatts::fromWatts(0.0));
    StepCalibrator cal(fast, slow);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cal.calibrateForPpb());
    }
}
BENCHMARK(BM_StepCalibration);

} // namespace

#ifdef ODRIPS_BENCH_OPTIMIZED
BENCHMARK_MAIN();
#else
#include <cstdio>
int
main()
{
    // Guard (see bench/CMakeLists.txt): perf numbers from an
    // unoptimised build would poison the tracked BENCH_kernel.json
    // trajectory. Refuse to report any.
    std::fprintf(stderr,
                 "microbench: this build is not optimised; refusing to "
                 "report perf numbers.\nConfigure with "
                 "-DCMAKE_BUILD_TYPE=Release (or RelWithDebInfo) and "
                 "rebuild.\n");
    return 1;
}
#endif
