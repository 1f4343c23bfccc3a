/**
 * @file
 * Workload abstraction: a benchmark is a memory layout, a sequence of
 * kernels, a per-thread-block coroutine, and a functional check.
 */

#ifndef GPU_WORKLOAD_HH
#define GPU_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/race_detector.hh"
#include "gpu/sim_task.hh"
#include "gpu/tb_context.hh"
#include "sim/types.hh"

namespace nosync
{

/**
 * Facilities a workload uses to set up and validate memory, provided
 * by the System. Initialization writes are functional (they model
 * CPU-side input preparation before the first kernel); debug reads
 * are coherent across the whole simulated hierarchy.
 */
class WorkloadEnv
{
  public:
    virtual ~WorkloadEnv() = default;

    /** Allocate @p bytes of line-aligned global memory. */
    virtual Addr alloc(Addr bytes) = 0;

    /** Functional pre-simulation write (CPU input preparation). */
    virtual void writeInit(Addr addr, std::uint32_t value) = 0;

    /** Coherent post-simulation read (checks / CPU output read). */
    virtual std::uint32_t debugRead(Addr addr) = 0;

    /** Declare a read-only region (consumed by DD+RO). */
    virtual void declareReadOnly(Addr base, Addr bytes) = 0;

    /**
     * Declare a streaming region — written at most once per
     * synchronization phase, read by many consumers next phase.
     * Consumed by DD+PR (stores bypass ownership registration and
     * write through); a no-op everywhere else, so workloads declare
     * unconditionally and the configuration decides.
     */
    virtual void declareStreaming(Addr, Addr) {}

    /** Total GPU compute units in the machine, across all devices. */
    virtual unsigned numCus() const = 0;

    /** Devices in the machine; global CU @p cu lives on device
     *  cu / cusPerDevice(). Single-device machines return 1. */
    virtual unsigned numDevices() const { return 1; }

    /** CUs per device (numCus() on single-device machines). */
    virtual unsigned cusPerDevice() const { return numCus(); }

    /** The configuration's consistency model supports scopes. */
    virtual bool hrf() const = 0;
};

/** Static description of one kernel launch. */
struct KernelInfo
{
    /** Thread blocks in the grid. */
    unsigned numTbs;
};

/** Base class for every benchmark in Table 4. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as used in the paper (e.g. "SPM_L"). */
    virtual std::string name() const = 0;

    /** Allocate and initialize memory; called once before kernel 0. */
    virtual void init(WorkloadEnv &env) = 0;

    /** Number of sequential kernel launches. */
    virtual unsigned numKernels() const { return 1; }

    /** Grid shape of kernel @p k. */
    virtual KernelInfo kernelInfo(unsigned k) const = 0;

    /** The thread-block program (a coroutine). */
    virtual SimTask tbMain(TbContext &ctx) = 0;

    /**
     * Functional validation after the run.
     * @return human-readable failure descriptions; empty on success.
     */
    virtual std::vector<std::string> check(WorkloadEnv &env)
    {
        (void)env;
        return {};
    }

    /**
     * Whether the final memory image is independent of event timing.
     * Timing-dependent workloads (e.g. work stealing, where the
     * traversal order decides which queue slots hold which nodes) are
     * excluded from the fault harness's golden-run memory comparison.
     */
    virtual bool deterministicOutput() const { return true; }

    /**
     * Address ranges the race detector should not count as failures,
     * each with a written justification (rendered in the report).
     * Called after init(), so ranges may reference allocations.
     */
    virtual std::vector<analysis::RaceSuppression>
    raceSuppressions() const
    {
        return {};
    }
};

/**
 * check() helper: compare the words from @p base on against
 * @p expect, naming each mismatch after @p who. Stops after nine.
 */
inline std::vector<std::string>
compareArray(WorkloadEnv &env, const std::string &who, Addr base,
             const std::vector<std::uint32_t> &expect)
{
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < expect.size(); ++i) {
        std::uint32_t got =
            env.debugRead(base + static_cast<Addr>(i) * kWordBytes);
        if (got != expect[i]) {
            failures.push_back(who + ": element " + std::to_string(i) +
                               " = " + std::to_string(got) +
                               ", expected " + std::to_string(expect[i]));
            if (failures.size() > 8)
                break;
        }
    }
    return failures;
}

} // namespace nosync

#endif // GPU_WORKLOAD_HH
