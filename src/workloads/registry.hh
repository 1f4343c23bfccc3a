/**
 * @file
 * Workload registry: name -> factory for every Table 4 benchmark,
 * grouped the way the paper's figures group them.
 */

#ifndef WORKLOADS_REGISTRY_HH
#define WORKLOADS_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gpu/workload.hh"

namespace nosync
{

/** Builds a benchmark at a scale in [1, 100] percent. */
using WorkloadFactory =
    std::function<std::unique_ptr<Workload>(unsigned scale_percent)>;

/**
 * Registry entry: a benchmark and its Table 4 metadata. The row is
 * the benchmark's one definition: @c make builds the paper's input
 * at 100 and the reduced variant (same structure, fewer iterations,
 * nodes or elements) below it.
 */
struct WorkloadDesc
{
    std::string name;
    /// "no-sync" | "global-sync" | "device-sync" | "local-sync" |
    /// "graph"
    std::string group;
    std::string input; ///< Table 4 input description (paper scale)
    WorkloadFactory make;
};

/** All benchmarks, one row each. */
const std::vector<WorkloadDesc> &workloadRegistry();

/** Benchmarks of one group, in the paper's figure order. */
std::vector<const WorkloadDesc *> workloadsInGroup(
    const std::string &group);

/** Look up one benchmark by name; nullptr when unknown. */
const WorkloadDesc *findWorkload(const std::string &name);

/**
 * Build benchmark @p name from its registry row at @p scale_percent
 * (100 = paper scale). Fatal for an unknown name or a scale outside
 * [1, 100].
 */
std::unique_ptr<Workload> makeScaled(const std::string &name,
                                     unsigned scale_percent);

} // namespace nosync

#endif // WORKLOADS_REGISTRY_HH
