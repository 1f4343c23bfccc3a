/**
 * @file
 * Multi-device sweep: 2- and 4-device machines (one 4x4 mesh, 15 CUs
 * + gateway per device) under all six configurations — the paper's
 * five columns plus the DD+SE memory-side sync engine, which this
 * harness always includes. The workload mix spans the scope
 * hierarchy: global mutexes whose traffic crosses the inter-device
 * link every acquire, device-scope mutexes that stay inside their
 * device (the new middle scope), and CU-local mutexes untouched by
 * the topology.
 *
 * The multi-device question the paper's scope argument raises: when
 * the machine grows another level of hierarchy, do scoped fences earn
 * their complexity, or does DeNovo registration (and bank-side sync
 * execution) keep pace with scope-oblivious annotations? Figures are
 * normalized to GD at each device count.
 *
 * Tracing is forced on (without trace-file output) so every BENCH
 * cell carries per-scope sync-latency blocks: sync_*_local,
 * sync_*_device, and sync_* (global) classes summarize separately.
 * With `--json=PATH` one record per device count is written —
 * stem.2dev.json, stem.4dev.json — keeping different machines in
 * different records for the perf gate.
 */

#include "bench_util.hh"

using namespace nosync;
using namespace nosync::bench;

namespace
{

constexpr unsigned kDeviceCounts[] = {2, 4};

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);

    // One representative per scope tier: global mutexes (every
    // acquire crosses the link), device-scope mutexes (the new middle
    // scope), and CU-local mutexes (topology-independent control).
    const std::vector<std::string> workloads = {
        "FAM_G", "SPM_G", "FAM_D", "SPM_D", "FAM_L"};

    // The sync engine is the sixth column of this sweep by
    // construction, independent of --sync-engine.
    std::vector<ProtocolConfig> configs = standardConfigs(opts);
    if (!opts.syncEngine)
        configs.push_back(ProtocolConfig::ddse());

    for (unsigned devices : kDeviceCounts) {
        WallTimer timer;
        auto results = runMatrix(
            workloads, configs,
            withFileLabel(opts, std::to_string(devices) + "dev"),
            [&](SystemConfig &config) {
                config.topology.devices = devices;
                // Sync-latency summaries for the BENCH record; no
                // trace files unless --trace was given.
                config.observability.traceEnabled = true;
            });

        std::cout << "=== Multi-device " << devices << "x("
                  << "4x4 mesh, 15 CUs + gateway) over the "
                     "inter-device link: normalized to GD ===\n\n";
        emitFigure(results, 0,
                   std::to_string(devices) + "-device", opts);
        maybeWriteJson(opts, "multi_device_sweep", results, timer,
                       std::to_string(devices) + "dev");
    }
    return 0;
}
