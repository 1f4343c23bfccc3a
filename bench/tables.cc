/**
 * @file
 * Tables 1-5: the paper's qualitative tables, regenerated from the
 * implementation's protocol traits, configuration, and workload
 * registry.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "core/features.hh"
#include "core/system_config.hh"
#include "workloads/registry.hh"

using namespace nosync;

namespace
{

const char *
supportStr(FeatureSet::Support s)
{
    switch (s) {
      case FeatureSet::Support::Yes:
        return "yes";
      case FeatureSet::Support::No:
        return "no";
      case FeatureSet::Support::IfLocalScope:
        return "if local";
    }
    return "?";
}

void
printFeatureRow(const std::string &label, const FeatureSet &fs)
{
    std::printf("%-24s %-10s %-10s %-10s %-10s %-10s %-10s %-10s\n",
                label.c_str(), supportStr(fs.reuseWrittenData),
                supportStr(fs.reuseValidData),
                supportStr(fs.noBurstyTraffic),
                supportStr(fs.noInvalidationsAcks),
                supportStr(fs.decoupledGranularity),
                supportStr(fs.reuseSynchronization),
                supportStr(fs.dynamicSharing));
}

void
printFeatureHeader()
{
    std::printf("%-24s %-10s %-10s %-10s %-10s %-10s %-10s %-10s\n",
                "", "WrReuse", "RdReuse", "NoBursty", "NoInvAck",
                "Decoupled", "SyncReuse", "DynShare");
}

} // namespace

int
main(int argc, char **argv)
{
    // No simulations and no flags: any option fails loudly instead
    // of silently printing the default tables.
    bench::Options::parse(argc, argv, {});

    std::printf("=== Table 1: classification of coherence protocols "
                "===\n");
    std::printf("%-10s %-10s %-14s %-14s %-8s\n", "Class", "Example",
                "Invalidation", "UpToDate", "Scopes?");
    for (const auto &row : protocolClassification()) {
        std::printf("%-10s %-10s %-14s %-14s %-8s\n",
                    row.category.c_str(), row.example.c_str(),
                    row.invalidationInitiator.c_str(),
                    row.upToDateTracking.c_str(),
                    row.supportsScopes ? "yes" : "no");
    }

    std::printf("\n=== Table 2: studied configurations ===\n");
    printFeatureHeader();
    for (const ProtocolConfig &config : ProtocolConfig::studied())
        printFeatureRow(config.shortName(), featuresOf(config));

    SystemConfig config;
    std::printf("\n=== Table 3: simulated system parameters ===\n");
    std::printf("GPU CUs                    %u\n", config.numCus());
    std::printf("Mesh                       %ux%u, %llu cycles/hop\n",
                config.topology.mesh.width, config.topology.mesh.height,
                static_cast<unsigned long long>(
                    config.topology.mesh.hopLatency));
    std::printf("L1 size / assoc            %zu KB / %u-way\n",
                config.geometry.l1Bytes / 1024,
                config.geometry.l1Assoc);
    std::printf("L2 (16 banks, NUCA)        %zu MB total\n",
                config.geometry.l2BankBytes * 16 / (1024 * 1024));
    std::printf("Store buffer               %zu entries\n",
                config.geometry.storeBufferEntries);
    std::printf("L1 hit latency             %llu cycle(s)\n",
                static_cast<unsigned long long>(kL1HitLatency));
    std::printf("L2 access latency          %llu cycles\n",
                static_cast<unsigned long long>(kL2AccessLatency));
    std::printf("Memory latency (past L2)   %llu cycles\n",
                static_cast<unsigned long long>(kDramLatency));

    std::printf("\n=== Table 4: benchmarks and inputs (scaled) ===\n");
    for (const char *group :
         {"no-sync", "global-sync", "local-sync"}) {
        std::printf("  -- %s --\n", group);
        for (const auto *desc : workloadsInGroup(group)) {
            std::printf("  %-10s %s\n", desc->name.c_str(),
                        desc->input.c_str());
        }
    }

    std::printf("\n=== Table 5: DD vs related GPU coherence schemes "
                "===\n");
    printFeatureHeader();
    for (const auto &row : relatedWorkComparison())
        printFeatureRow(row.scheme, row.features);
    return 0;
}
