/**
 * @file
 * Top-level system configuration (Table 3's sizes plus the studied
 * protocol configuration), grouped into named sub-structs:
 *
 *   - `topology`       what machine to build (devices x mesh + link)
 *   - `execution`      how to run it (seed, watchdog, faults)
 *   - `checking`       correctness machinery (invariant sweeps, races)
 *   - `observability`  tracing
 *
 * One `validate()` owns every inter-field consistency rule; System's
 * constructor calls it and refuses invalid configurations with the
 * returned message, so the rules live here instead of scattered
 * per-seam panics.
 */

#ifndef CORE_SYSTEM_CONFIG_HH
#define CORE_SYSTEM_CONFIG_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "coherence/cache_timings.hh"
#include "coherence/protocol.hh"
#include "noc/mesh.hh"

namespace nosync
{

/** Everything needed to build a System. */
struct SystemConfig
{
    /** Which of GD / GH / DD / DD+RO / DH / DD+SE to build. */
    ProtocolConfig protocol = ProtocolConfig::dd();

    /**
     * Machine shape: number of devices, the mesh geometry each device
     * replicates (CUs + one CPU/gateway node), and the inter-device
     * link class. The default is the classic one-device machine.
     */
    MachineTopology topology{};

    /** Cache capacities. Table 3's latencies, the energy costs and
     *  the launch latency are constants (DESIGN.md section 3). */
    CacheGeometry geometry{};

    /** How the run executes: seeding, pacing, chaos. */
    struct Execution
    {
        /** Seed for workload randomness (UTS shape, backoff jitter). */
        std::uint64_t seed = 1;

        /** Watchdog: abort runs exceeding this many cycles. */
        Tick maxCycles = 2'000'000'000ull;

        /**
         * Always 0; validate() refuses any other value. In-run
         * parallel simulation was removed (DESIGN.md section 15). The
         * field is kept only because the benchmark driver
         * (perfbench/main.cc) still assigns it.
         */
        unsigned simThreads = 0;

        /**
         * Seed of the message-delivery fault injector (chaos
         * testing); 0 runs fault-free. Kept separate from `seed` so
         * the workload shape stays fixed while faults vary.
         */
        std::uint64_t faultSeed = 0;
    };
    Execution execution{};

    /** Correctness machinery riding along with the run. */
    struct Checking
    {
        /**
         * Period (cycles) of in-run protocol invariant sweeps; 0
         * turns the periodic sweeps off. Sweeps run from the
         * simulation driver loop, never from the event queue, so an
         * otherwise-idle system still deadlock-detects.
         */
        Tick checkPeriod = 0;

        /**
         * Happens-before race checking: when set, the System
         * constructs an analysis::RaceDetector and wires it into the
         * TB contexts and every coherence controller. Off by default;
         * the off path never constructs the detector, so checked and
         * unchecked builds of the same run produce bitwise-identical
         * simulated results. Unsuppressed races land in
         * checkFailures.
         */
        bool raceCheckEnabled = false;
    };
    Checking checking{};

    /** Observability sinks riding along with the run. */
    struct Observability
    {
        /**
         * Transaction tracing: when set, the System constructs a
         * trace::TraceSink and wires it into every controller, the
         * mesh and the GPU device. Off by default; the off path never
         * constructs the sink, so traced and untraced builds of the
         * same run produce bitwise-identical simulated results.
         */
        bool traceEnabled = false;
    };
    Observability observability{};

    /** Total GPU compute units across all devices. */
    unsigned numCus() const { return topology.totalCus(); }

    /**
     * Check every inter-field consistency rule in one place.
     * @return an error message, or "" when the config is buildable.
     */
    std::string
    validate() const
    {
        unsigned per_dev = topology.nodesPerDevice();
        unsigned num_nodes = topology.numNodes();
        if (topology.devices < 1)
            return "topology needs at least one device";
        if (topology.devices > 64)
            return "topology supports at most 64 devices, got " +
                   std::to_string(topology.devices);
        if (topology.mesh.width < 1 || topology.mesh.height < 1)
            return "per-device mesh must be at least 1x1";
        if (topology.cusPerDevice < 1)
            return "each device needs at least one CU";
        if (topology.cusPerDevice >= per_dev)
            return "need at least one non-CU node per device for the "
                   "CPU/gateway core (" +
                   std::to_string(topology.cusPerDevice) +
                   " CUs on a " + std::to_string(per_dev) +
                   "-node mesh)";
        // CacheLine packs the per-word owner as int16_t, so NodeId
        // must fit in [-1, 32766]; reject larger machines before
        // building any per-node structures instead of silently
        // truncating owner ids in the registry.
        if (num_nodes > 32766)
            return "machine has " + std::to_string(num_nodes) +
                   " nodes but CacheLine owner ids are int16_t "
                   "(max 32766)";
        // Route entries store link indices as uint16_t.
        if (static_cast<std::size_t>(num_nodes) * 4 +
                static_cast<std::size_t>(topology.devices) *
                    topology.devices >
            65535)
            return "machine link table exceeds the 16-bit route "
                   "index space";
        if (topology.devices > 1) {
            if (topology.link.cyclesPerFlit < 1)
                return "inter-device link needs cyclesPerFlit >= 1";
        }
        if (execution.simThreads != 0)
            return "simThreads must be 0: in-run parallel simulation "
                   "was removed (DESIGN.md section 15)";
        if (execution.maxCycles == 0)
            return "maxCycles watchdog cannot be zero";
        return "";
    }

    /** Convenience: same machine, different protocol configuration. */
    SystemConfig
    with(const ProtocolConfig &proto) const
    {
        SystemConfig copy = *this;
        copy.protocol = proto;
        return copy;
    }
};

} // namespace nosync

#endif // CORE_SYSTEM_CONFIG_HH
