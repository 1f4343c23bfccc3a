/**
 * @file
 * The System: one simulated CPU-GPU machine (Figure 1) under one of
 * the five studied configurations. This is the library's main entry
 * point: build a System from a SystemConfig, run a Workload, get a
 * RunResult with the paper's three metrics (execution time, dynamic
 * energy by component, network traffic by class).
 */

#ifndef CORE_SYSTEM_HH
#define CORE_SYSTEM_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/race_detector.hh"
#include "coherence/denovo_l1.hh"
#include "coherence/denovo_l2.hh"
#include "coherence/gpu_l1.hh"
#include "coherence/gpu_l2.hh"
#include "coherence/l2_controller.hh"
#include "coherence/region_map.hh"
#include "core/hang_report.hh"
#include "core/system_config.hh"
#include "energy/energy_model.hh"
#include "gpu/gpu_device.hh"
#include "gpu/workload.hh"
#include "mem/functional_mem.hh"
#include "noc/fault_injector.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "trace/trace_sink.hh"

namespace nosync
{

/** Result of running one workload on one configuration. */
struct RunResult
{
    std::string workload;
    std::string config;

    /** Execution time in GPU cycles (Figures 2a/3a/4a). */
    Tick cycles = 0;

    /** Dynamic energy by component, pJ (Figures 2b/3b/4b). */
    std::array<double, kNumEnergyComponents> energy{};
    double energyTotal = 0.0;

    /** Network flit crossings by class (Figures 2c/3c/4c). */
    std::array<double, kNumTrafficClasses> traffic{};
    double trafficTotal = 0.0;

    /** Functional-check failures; empty on success. */
    std::vector<std::string> checkFailures;

    /** Populated when the run ended without workload completion. */
    std::optional<HangReport> hang;

    /**
     * Happens-before race report; enabled only when the run was
     * race-checked. Derived purely from simulated state, so it is
     * deterministic like the rest of the simulated fields.
     */
    analysis::RaceReport races;

    /**
     * Per-transaction-class latency summary, from the trace sink's
     * distributions. Empty unless the run was traced; derived purely
     * from simulated ticks, so it is deterministic like the rest of
     * the simulated fields.
     */
    struct LatencySummary
    {
        std::string cls;
        std::uint64_t count = 0;
        double p50 = 0.0;
        double p95 = 0.0;
        double max = 0.0;
    };
    std::vector<LatencySummary> syncLatency;

    /**
     * Host-side measurement, fenced off from the simulated result in
     * its own struct: determinism checks (e.g. the sweep-runner's
     * serial-vs-parallel identity test) compare the simulated fields
     * and skip this struct by construction.
     */
    struct Host
    {
        /** Wall-clock spent inside System::run, milliseconds. */
        double millis = 0.0;
        /** Simulated events executed by this run. */
        std::uint64_t eventsExecuted = 0;
    };
    Host host;

    bool ok() const { return checkFailures.empty(); }
};

/** One simulated machine instance. Build fresh per run. */
class System : public WorkloadEnv
{
  public:
    /** Base of the workload heap (below lies scratch/unused space). */
    static constexpr Addr kAllocBase = 0x10000;

    explicit System(const SystemConfig &config);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run @p workload to completion and collect the metrics. */
    RunResult run(Workload &workload);

    // WorkloadEnv interface -------------------------------------------
    Addr alloc(Addr bytes) override;
    void writeInit(Addr addr, std::uint32_t value) override;
    std::uint32_t debugRead(Addr addr) override;
    void declareReadOnly(Addr base, Addr bytes) override;
    void declareStreaming(Addr base, Addr bytes) override;
    unsigned numCus() const override { return _config.numCus(); }
    unsigned numDevices() const override
    {
        return _config.topology.devices;
    }
    unsigned cusPerDevice() const override
    {
        return _config.topology.cusPerDevice;
    }
    bool hrf() const override
    {
        return _config.protocol.consistency() == ConsistencyModel::Hrf;
    }

    // Component access (tests, benches) -------------------------------
    const SystemConfig &config() const { return _config; }
    EventQueue &eventQueue() { return _eq; }
    stats::StatSet &stats() { return _stats; }
    const stats::StatSet &stats() const { return _stats; }
    Mesh &mesh() { return *_mesh; }
    FaultInjector *faults() { return _faults ? &*_faults : nullptr; }
    EnergyModel &energy() { return *_energy; }
    FunctionalMem &memory() { return _memory; }
    RegionMap &regions() { return _regions; }

    /**
     * Uniform controller access, independent of the configured
     * protocol. Callers needing a concrete controller type downcast
     * explicitly with as<T>() (sim/sim_object.hh), which makes the
     * config dependence visible at the call site:
     *
     *     if (auto *l1 = as<DenovoL1Cache>(sys.l1(0))) ...
     *
     * Indices are machine-global (device-major): on a one-device
     * machine these are exactly the classic flat accessors, and
     * device(0) is a view of the whole machine. Multi-device callers
     * address per-device components through device(d).
     */
    L1Controller &l1(unsigned cu) { return *_l1s.at(cu); }
    L2Controller &l2Bank(unsigned bank) { return *_l2Banks.at(bank); }
    unsigned numL2Banks() const
    {
        return static_cast<unsigned>(_l2Banks.size());
    }

    /** Per-device addressing of one device's slice of the machine. */
    class DeviceView
    {
      public:
        DeviceView(System &sys, unsigned dev) : _sys(sys), _dev(dev) {}

        /** This device's L1 for device-local CU @p cu. */
        L1Controller &
        l1(unsigned cu) const
        {
            return _sys.l1(_dev * _sys.cusPerDevice() + cu);
        }

        /** This device's L2 bank for device-local node @p bank. */
        L2Controller &
        l2Bank(unsigned bank) const
        {
            return _sys.l2Bank(
                _dev * _sys._config.topology.nodesPerDevice() + bank);
        }

        unsigned numCus() const { return _sys.cusPerDevice(); }
        unsigned
        numL2Banks() const
        {
            return _sys._config.topology.nodesPerDevice();
        }

        /** Global node id of this device's CPU/gateway core. */
        NodeId
        gatewayNode() const
        {
            return _sys._config.topology.gatewayNode(_dev);
        }

        unsigned index() const { return _dev; }

      private:
        System &_sys;
        unsigned _dev;
    };

    /** View of device @p d's components. */
    DeviceView
    device(unsigned d)
    {
        fatal_if(d >= _config.topology.devices, "device(", d,
                 ") on a ", _config.topology.devices,
                 "-device machine");
        return DeviceView(*this, d);
    }

    /** Trace sink; nullptr unless config().traceEnabled. */
    trace::TraceSink *trace() { return _trace.get(); }

    /** Race detector; nullptr unless config().raceCheckEnabled. */
    analysis::RaceDetector *races() { return _races.get(); }

    // Exploration seams (bench/litmus_explore) ------------------------
    /**
     * Attach a thread-block scheduler before run(); the GpuDevice
     * threads it into every TbContext so the scheduler controls which
     * ready TB issues at each quantum. Null (the default) issues
     * inline — the normal, bitwise-identical path.
     */
    void setTbScheduler(TbScheduler *sched) { _tbScheduler = sched; }

    /**
     * Attach a message-delivery policy before run(). Overrides the
     * FaultInjector the config may have installed; at most one policy
     * drives a mesh.
     */
    void
    setDeliveryPolicy(DeliveryPolicy *policy)
    {
        _mesh->setDeliveryPolicy(policy);
    }

    /** End of the allocated workload heap (checker memory sweeps). */
    Addr allocTop() const { return _allocNext; }

  private:
    /** Fold the final flit/energy tallies into @p result. */
    void collectMetrics(RunResult &result);

    SystemConfig _config;
    EventQueue _eq;
    stats::StatSet _stats;
    FunctionalMem _memory;
    RegionMap _regions;
    /** Declared before the components that hold pointers into it. */
    std::unique_ptr<trace::TraceSink> _trace;
    std::unique_ptr<analysis::RaceDetector> _races;
    std::unique_ptr<EnergyModel> _energy;
    std::unique_ptr<Mesh> _mesh;
    /** Held in place rather than behind a pointer, which keeps a
     *  System's heap chunk above glibc's tcache size limit (DESIGN.md
     *  §10, "Heap layout: System's size"). */
    std::optional<FaultInjector> _faults;

    std::vector<std::unique_ptr<GpuL2Bank>> _gpuBanks;
    std::vector<std::unique_ptr<DenovoL2Bank>> _denovoBanks;
    std::vector<std::unique_ptr<GpuL1Cache>> _gpuL1s;
    std::vector<std::unique_ptr<DenovoL1Cache>> _denovoL1s;
    std::vector<L1Controller *> _l1s;
    std::vector<L2Controller *> _l2Banks;

    Addr _allocNext = kAllocBase;
    bool _ran = false;
    /** Exploration scheduler; nullptr outside model checking. */
    TbScheduler *_tbScheduler = nullptr;
};

} // namespace nosync

#endif // CORE_SYSTEM_HH
