/**
 * @file
 * FLEET CAMPAIGN — population-scale connected-standby evaluation.
 *
 * Simulates N device-days of a mixed user population (see
 * workload/user_profile.hh) and reports the population distribution
 * of standby power and days-of-standby: p1/p10/p50/p90/p99, streamed
 * through O(stats) mergeable accumulators (src/fleet/, src/stats/).
 *
 * Determinism contract: stdout depends only on the campaign
 * configuration — bit-identical across --jobs, ODRIPS_CHECKPOINT and
 * ODRIPS_PROFILE_CACHE (enforced by the scripts/check.sh fleet gate).
 * Throughput telemetry (pool restores, cache hits, worker balance) is
 * stderr only.
 *
 *     fleet_campaign --devices=10000 --jobs=8           # warm engine
 *     fleet_campaign --devices=100 --cold               # naive foil
 *     fleet_campaign --emit-odwl=pop.odwl               # save population
 *     fleet_campaign --odwl=pop.odwl --devices=1000     # replay it
 *
 * scripts/bench.sh times the binary externally with `date` and records
 * device_days_per_second (cold vs warm) in
 * BENCH_kernel.json.
 */

#include <cstring>
#include <iostream>
#include <string>

#include "fleet/campaign.hh"
#include "sim/logging.hh"
#include "workload/odwl.hh"

using namespace odrips;

namespace
{

struct Options
{
    fleet::CampaignConfig campaign;
    std::string emitOdwl;
    std::string loadOdwl;
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.campaign.base = skylakeConfig();
    opt.campaign.population = FleetPopulation::mixedReference();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--devices=", 0) == 0) {
            opt.campaign.deviceDays =
                std::stoull(arg.substr(std::strlen("--devices=")));
        } else if (arg == "--cold") {
            opt.campaign.naiveCold = true;
        } else if (arg.rfind("--sim-sample=", 0) == 0) {
            opt.campaign.simSampleEvery =
                std::stoull(arg.substr(std::strlen("--sim-sample=")));
        } else if (arg.rfind("--battery-wh=", 0) == 0) {
            opt.campaign.batteryWattHours =
                std::stod(arg.substr(std::strlen("--battery-wh=")));
        } else if (arg.rfind("--seed=", 0) == 0) {
            opt.campaign.seed =
                std::stoull(arg.substr(std::strlen("--seed=")));
        } else if (arg.rfind("--batch=", 0) == 0) {
            opt.campaign.batchSize =
                std::stoull(arg.substr(std::strlen("--batch=")));
        } else if (arg.rfind("--emit-odwl=", 0) == 0) {
            opt.emitOdwl = arg.substr(std::strlen("--emit-odwl="));
        } else if (arg.rfind("--odwl=", 0) == 0) {
            opt.loadOdwl = arg.substr(std::strlen("--odwl="));
        } else if (arg.rfind("--jobs", 0) == 0) {
            // consumed by resolveJobs()
        } else {
            fatal("fleet_campaign: unknown argument ", arg,
                  " (expected --devices=N, --cold, --sim-sample=N, "
                  "--battery-wh=F, --seed=N, --batch=N, "
                  "--emit-odwl=PATH, --odwl=PATH, --jobs=N)");
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    Logger::quiet(true);
    exec::setDefaultJobs(resolveJobs(argc, argv));
    Options opt = parseArgs(argc, argv);

    if (!opt.loadOdwl.empty()) {
        try {
            const OdwlDocument doc = readOdwlFile(opt.loadOdwl);
            opt.campaign.population = doc.population;
        } catch (const OdwlError &e) {
            std::cerr << "fleet_campaign: " << e.what() << '\n';
            return 1;
        }
    }

    if (!opt.emitOdwl.empty()) {
        OdwlDocument doc;
        doc.population = opt.campaign.population;
        try {
            writeOdwlFile(opt.emitOdwl, doc);
        } catch (const OdwlError &e) {
            std::cerr << "fleet_campaign: " << e.what() << '\n';
            return 1;
        }
        std::cerr << "fleet_campaign: wrote population to "
                  << opt.emitOdwl << '\n';
        return 0;
    }

    const fleet::CampaignResult result = runCampaign(opt.campaign);
    fleet::printCampaignReport(std::cout, opt.campaign, result);

    fleet::printCampaignTelemetry(std::cerr, result);
    stats::printRunTelemetry(std::cerr);
    return 0;
}
