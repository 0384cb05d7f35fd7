/**
 * @file
 * ODRIPS benchmark program (perfbench).
 *
 *   perfbench --workload sweep_cold|longtrace|fleet_day --seed N
 *             --seconds S --trace 0|1 [--expect-digest HEX]
 *
 * Prints a provenance line, human-readable metric lines, and as its
 * last line one JSON object {correct, attempted, failed, metrics}:
 * the end-to-end metrics with --trace 0, the per-layer metrics with
 * --trace 1. See perfbench/README.md.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "arch/dispatch.hh"
#include "exec/thread_pool.hh"
#include "harness.hh"
#include "sim/logging.hh"

extern char **environ;

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload sweep_cold|longtrace|"
                 "fleet_day --seed N --seconds S --trace 0|1 "
                 "[--expect-digest HEX]\n";
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &text, const char *what)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0')
        usage(std::string("bad ") + what + " '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        if (arg == "--workload") {
            opt.workload = val;
        } else if (arg == "--seed") {
            opt.seed = parseU64(val, "seed");
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<double>(parseU64(val, "seconds"));
            if (opt.seconds < 1 || opt.seconds > 120)
                usage("--seconds must be in [1, 120]");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            opt.trace = val == "1";
        } else if (arg == "--expect-digest") {
            opt.expectDigest = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (opt.workload != "sweep_cold" && opt.workload != "longtrace" &&
        opt.workload != "fleet_day")
        usage("unknown workload '" + opt.workload + "'");
    return opt;
}

/** Numbers are only meaningful from an optimised build with no
 * simulator knob overridden from the environment. */
void
refuseUnsoundSetups()
{
#ifndef __OPTIMIZE__
    std::cerr << "perfbench: refusing to report: not an optimised build "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
    std::exit(3);
#endif
    for (char **env = environ; env != nullptr && *env != nullptr; ++env) {
        if (std::strncmp(*env, "ODRIPS_", 7) == 0) {
            const std::string var(*env, std::strcspn(*env, "="));
            std::cerr << "perfbench: refusing to report: " << var
                      << " is set; unset every ODRIPS_* variable\n";
            std::exit(3);
        }
    }
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
    if (max_leaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string model(reinterpret_cast<const char *>(regs), 48);
        model.resize(std::strlen(model.c_str()));
        const auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

/** HEAD commit of the checkout, or "unknown" outside a git work tree. */
std::string
gitSha()
{
    std::ifstream head(".git/HEAD");
    std::string line;
    if (!std::getline(head, line))
        return "unknown";
    if (line.rfind("ref: ", 0) != 0)
        return line;
    const std::string ref = line.substr(5);
    std::ifstream loose(".git/" + ref);
    if (std::getline(loose, line))
        return line;
    std::ifstream packed(".git/packed-refs");
    while (std::getline(packed, line)) {
        const auto space = line.find(' ');
        if (space != std::string::npos && line.substr(space + 1) == ref)
            return line.substr(0, space);
    }
    return "unknown";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonMetrics(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}";
    return os.str();
}

/** Peak resident set of this process image (VmHWM). getrusage() is
 * not used: its ru_maxrss survives exec and so can report the parent
 * that launched this program. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void
printMetricLine(const Metric &m)
{
    std::cout << "  " << m.name << " = " << jsonNumber(m.value) << " "
              << m.unit << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    refuseUnsoundSetups();
    odrips::Logger::quiet(true);

    const unsigned workers = opt.workload == "fleet_day" ? 2 : 1;
    odrips::exec::setDefaultJobs(workers);

    std::cout << "provenance: {\"git_sha\": \"" << gitSha()
              << "\", \"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu_model\": \"" << cpuModel()
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"dispatch\": \""
              << odrips::arch::activeKernels().levelName
              << "\", \"workers\": " << workers
              << ", \"workload\": \"" << opt.workload
              << "\", \"seed\": " << opt.seed
              << ", \"seconds\": " << opt.seconds
              << ", \"trace\": " << (opt.trace ? 1 : 0)
              << ", \"digest_recorded\": "
              << (opt.expectDigest.empty() ? "false" : "true") << "}\n";

    Report report;
    if (opt.workload == "sweep_cold")
        runSweepCold(opt, report);
    else if (opt.workload == "longtrace")
        runLongtrace(opt, report);
    else
        runFleetDay(opt, report);

    if (!opt.expectDigest.empty() && report.digest != opt.expectDigest)
        report.fail("output digest " + report.digest +
                    " differs from the recorded " + opt.expectDigest);

    const TailPercentile tail = report.meter.percentileMs(report.tailLevel);
    if (!opt.trace && tail.beyond < 10)
        report.fail("too few ops for a p" + jsonNumber(tail.percentile) +
                    " latency");
    const std::vector<Metric> endToEnd = {
        {"setup_s", report.setupSeconds, "s"},
        {"ops_per_s", report.meter.workPerSecond(), "1/s"},
        {"op_ms_p50", report.meter.p50Ms(), "ms"},
        {"op_ms_tail", tail.value, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"fig6a_savings_err_pp", report.fig6aSavingsErrPp, "pp"},
        {"fig6a_breakeven_err_pct", report.fig6aBreakevenErrPct, "%"},
    };

    for (const Metric &m : endToEnd)
        if (!std::isfinite(m.value) || m.value <= 0.0)
            report.fail("metric " + m.name + " is not a positive number");
    for (const Metric &m : report.perLayer)
        if (!std::isfinite(m.value))
            report.fail("metric " + m.name + " is not finite");

    const double failedRatio =
        report.attempted > 0 ? static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted)
                             : 1.0;
    std::cout << "workload " << opt.workload << ": " << report.meter.ops()
              << " " << report.opName << " in "
              << jsonNumber(report.meter.seconds()) << " s"
              << (opt.trace ? " (untraced half of a traced run)" : "")
              << "\nend-to-end:\n";
    for (const Metric &m : endToEnd)
        printMetricLine(m);
    const TailPercentile highest = report.meter.highestTailMs();
    std::cout << "  op_ms_tail is p" << tail.percentile << " over "
              << tail.samples << " samples (" << tail.beyond
              << " beyond); the highest percentile with 10 beyond is p"
              << highest.percentile << " = " << jsonNumber(highest.value)
              << " ms (" << highest.beyond << " beyond)\n";
    printMetricLine({"fig6a_breakeven_err_ms", report.fig6aBreakevenErrMs,
                     "ms"});
    printMetricLine({"failed_ratio", failedRatio, "ratio"});
    printMetricLine({report.rateAlias, report.meter.workPerSecond(), "1/s"});
    printMetricLine({report.latencyAlias + "_p50", report.meter.p50Ms(),
                     "ms"});
    char tailName[16];
    std::snprintf(tailName, sizeof(tailName), "_p%g", tail.percentile);
    printMetricLine({report.latencyAlias + tailName, tail.value, "ms"});
    if (opt.trace) {
        std::cout << "per-layer:\n";
        for (const Metric &m : report.perLayer)
            printMetricLine(m);
    }
    std::cout << "digest " << report.digest << "\n";
    for (const std::string &why : report.failures)
        std::cout << "FAILED: " << why << "\n";

    std::cout << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": "
              << jsonMetrics(opt.trace ? report.perLayer : endToEnd)
              << "}" << std::endl;
    return 0;
}
