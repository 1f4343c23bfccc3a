#include "core/system.hh"

#include <chrono>

#include "core/protocol_checker.hh"

namespace nosync
{

System::System(const SystemConfig &config) : _config(config)
{
    // Every inter-field consistency rule lives in one place; a config
    // that fails validation is refused before any component exists.
    std::string invalid = _config.validate();
    fatal_if(!invalid.empty(), "invalid SystemConfig: ", invalid);

    if (_config.observability.traceEnabled) {
        _trace = std::make_unique<trace::TraceSink>(_stats);
    }
    if (_config.checking.raceCheckEnabled) {
        _races = std::make_unique<analysis::RaceDetector>(
            _config.protocol, _config.topology.devices,
            _config.topology.cusPerDevice);
    }
    const MachineTopology &topo = _config.topology;
    unsigned num_nodes = topo.numNodes();

    _energy = std::make_unique<EnergyModel>(_stats);
    _mesh = std::make_unique<Mesh>(_eq, _stats, topo, _trace.get());
    if (_config.execution.faultSeed != 0) {
        _faults.emplace(_config.execution.faultSeed);
        _mesh->setDeliveryPolicy(&*_faults);
    }

    // Interleave the functional image by line number — the same
    // mapping the L2 banks use — so each bank's misses touch a
    // private map. Pure layout; contents are unchanged.
    _memory.setInterleave(num_nodes);

    bool denovo =
        _config.protocol.protocol() == CoherenceProtocol::Denovo;

    // One L2 bank per mesh node of every device (NUCA, Figure 1); the
    // functional image and the bank homing are striped machine-wide,
    // so the devices share one global address space.
    for (unsigned node = 0; node < num_nodes; ++node) {
        std::string name = "l2b" + std::to_string(node);
        if (denovo) {
            _denovoBanks.push_back(std::make_unique<DenovoL2Bank>(
                name, _eq, _stats, *_energy, *_mesh,
                static_cast<NodeId>(node), _memory, _config.geometry,
                _trace.get()));
            _l2Banks.push_back(_denovoBanks.back().get());
        } else {
            _gpuBanks.push_back(std::make_unique<GpuL2Bank>(
                name, _eq, _stats, *_energy, *_mesh,
                static_cast<NodeId>(node), _memory, _config.geometry,
                _trace.get()));
            _l2Banks.push_back(_gpuBanks.back().get());
        }
    }

    // One L1 per GPU CU: device d's CUs sit at that device's local
    // nodes 0 .. cusPerDevice-1 (the device's last node is its
    // CPU/gateway core). Global CU index is device-major.
    for (unsigned cu = 0; cu < topo.totalCus(); ++cu) {
        NodeId node = topo.nodeOfCu(cu);
        std::string name = "l1." + std::to_string(cu);
        if (denovo) {
            std::vector<DenovoL2Bank *> banks;
            for (auto &bank : _denovoBanks)
                banks.push_back(bank.get());
            _denovoL1s.push_back(std::make_unique<DenovoL1Cache>(
                name, _eq, _stats, *_energy, *_mesh, node,
                _config.protocol, std::move(banks), _regions,
                _config.geometry, _trace.get()));
            _l1s.push_back(_denovoL1s.back().get());
        } else {
            std::vector<GpuL2Bank *> banks;
            for (auto &bank : _gpuBanks)
                banks.push_back(bank.get());
            _gpuL1s.push_back(std::make_unique<GpuL1Cache>(
                name, _eq, _stats, *_energy, *_mesh, node,
                _config.protocol, std::move(banks), _config.geometry,
                _trace.get()));
            _l1s.push_back(_gpuL1s.back().get());
        }
    }

    if (denovo) {
        // Wire forwards: registry -> L1 and L1 -> L1. Indexed by mesh
        // node (owner ids are node ids); non-CU nodes hold no L1 and
        // never own words, so their slots stay null.
        std::vector<DenovoL1Cache *> l1s(num_nodes, nullptr);
        for (auto &l1 : _denovoL1s)
            l1s[static_cast<std::size_t>(l1->node())] = l1.get();
        for (auto &bank : _denovoBanks)
            bank->setL1s(l1s);
        for (auto &l1 : _denovoL1s)
            l1->setPeers(l1s);
    }

    if (_races) {
        for (L1Controller *l1 : _l1s)
            l1->setRaceDetector(_races.get());
        for (L2Controller *bank : _l2Banks)
            bank->setRaceDetector(_races.get());
    }
}

System::~System() = default;

Addr
System::alloc(Addr bytes)
{
    Addr base = _allocNext;
    Addr lines = (bytes + kLineBytes - 1) / kLineBytes;
    _allocNext += lines * kLineBytes;
    return base;
}

void
System::writeInit(Addr addr, std::uint32_t value)
{
    _memory.writeWord(addr, value);
}

std::uint32_t
System::debugRead(Addr addr)
{
    // Coherent whole-hierarchy read: a DeNovo L1 owning the word has
    // the only up-to-date copy; otherwise the home L2 bank (or memory
    // behind it) does. GPU L1s never own a word, and _denovoL1s is
    // empty under GD/GH.
    for (auto &l1 : _denovoL1s) {
        if (l1->ownsWord(addr)) {
            std::uint32_t value = 0;
            l1->peekWord(addr, value);
            return value;
        }
    }
    if (!_l2Banks.empty())
        return _l2Banks[lineHome(addr, _mesh->numNodes())]->peekWord(addr);
    return _memory.readWord(addr);
}

void
System::declareReadOnly(Addr base, Addr bytes)
{
    _regions.addReadOnly(base, bytes);
}

void
System::declareStreaming(Addr base, Addr bytes)
{
    _regions.declare(base, bytes, RegionPolicy::Streaming);
}

void
System::collectMetrics(RunResult &result)
{
    // Network energy accrues from the final flit counts.
    _energy->flitCrossings(_mesh->totalFlitCrossings());

    for (std::size_t c = 0; c < kNumEnergyComponents; ++c) {
        result.energy[c] =
            _energy->component(static_cast<EnergyComponent>(c));
    }
    result.energyTotal = _energy->total();

    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        result.traffic[c] =
            _mesh->flitCrossings(static_cast<TrafficClass>(c));
    }
    result.trafficTotal = _mesh->totalFlitCrossings();

    if (_trace) {
        for (std::size_t c = 0; c < trace::kNumTxnClasses; ++c) {
            auto cls = static_cast<trace::TxnClass>(c);
            const stats::Distribution &d = _trace->latency(cls);
            if (d.count() == 0)
                continue;
            result.syncLatency.push_back(
                {trace::txnClassName(cls), d.count(),
                 d.percentile(0.50), d.percentile(0.95), d.max()});
        }
    }
}

RunResult
System::run(Workload &workload)
{
    fatal_if(_ran, "a System instance runs exactly one workload; "
             "build a fresh System for each run");
    _ran = true;

    auto host_start = std::chrono::steady_clock::now();
    auto stamp_host = [&](RunResult &r) {
        r.host.eventsExecuted = _eq.executed();
        r.host.millis = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() -
                            host_start)
                            .count();
    };

    workload.init(*this);
    // Conflicting region declarations (an address covered by two
    // different policies) would make the per-region protocol choice
    // ambiguous: fail loudly before simulating a cycle.
    for (const std::string &conflict : _regions.validate())
        fatal("region declaration conflict: ", conflict);
    if (_races)
        _races->setSuppressions(workload.raceSuppressions());

    GpuDevice device(_eq, _stats, *_energy, _l1s, workload,
                     _config.execution.seed, _trace.get(), _races.get(),
                     _tbScheduler);

    bool done = false;
    Tick done_tick = 0;
    device.run([&] {
        done = true;
        done_tick = _eq.now();
    });

    // Periodic invariant sweeps run from this driver loop, never from
    // scheduled events: a recurring event would keep the queue
    // non-empty and defeat deadlock detection.
    ProtocolChecker checker(*this);
    Tick next_sweep =
        _config.checking.checkPeriod ? _config.checking.checkPeriod : 0;
    std::vector<std::string> sweep_violations;

    while (!done && !_eq.empty() &&
           _eq.now() < _config.execution.maxCycles) {
        _eq.step();
        if (next_sweep && _eq.now() >= next_sweep) {
            sweep_violations = checker.sweepRacy();
            if (!sweep_violations.empty())
                break; // fail loudly, with state intact
            next_sweep = _eq.now() + _config.checking.checkPeriod;
        }
    }

    if (done) {
        // Quiesce: in-flight protocol traffic (e.g. eviction
        // writebacks racing the final drain) must land before the
        // hierarchy is inspected for results.
        _eq.run(_config.execution.maxCycles);
    }

    RunResult result;
    result.workload = workload.name();
    result.config = _config.protocol.shortName();
    result.cycles = done ? done_tick : _eq.now();

    if (!sweep_violations.empty()) {
        result.checkFailures.push_back(
            "protocol invariant violated at tick " +
            std::to_string(_eq.now()));
        for (auto &v : sweep_violations)
            result.checkFailures.push_back(std::move(v));
        collectMetrics(result);
        stamp_host(result);
        return result;
    }

    if (!done) {
        HangReport report;
        report.tick = _eq.now();
        if (_eq.empty()) {
            report.reasonCode = HangReport::kDeadlock;
            report.reason = "deadlock: event queue empty before "
                            "workload completion";
        } else {
            // The --max-cycles budget expired: not a bare truncation
            // but a structured, machine-matchable verdict, so a
            // wedged schedule during exploration is diagnosable.
            report.reasonCode = HangReport::kBudgetExhausted;
            report.reason = "watchdog: cycle budget (" +
                            std::to_string(_config.execution.maxCycles) +
                            ") exhausted";
        }
        report.workload = result.workload;
        report.config = result.config;
        report.faultSeed = _config.execution.faultSeed;
        report.tbWaits = device.waitStates();
        report.meshMessages = _mesh->inFlightSnapshot();
        auto keep_busy = [&](ControllerSnapshot snap) {
            if (!snap.quiescent())
                report.controllers.push_back(std::move(snap));
        };
        for (L1Controller *l1 : _l1s)
            keep_busy(l1->snapshot());
        for (L2Controller *bank : _l2Banks)
            keep_busy(bank->snapshot());
        report.violations = checker.sweepRacy();

        result.checkFailures.push_back(report.reason);
        for (const auto &v : report.violations)
            result.checkFailures.push_back(v);
        result.hang = std::move(report);

        // The hung run's partial metrics still matter (a watchdog
        // fires on livelock, where traffic and energy explain what
        // spun); account the flits crossed so far.
        collectMetrics(result);
        stamp_host(result);
        return result;
    }

    result.cycles = done_tick;
    _stats.scalar("sim.exec_cycles", "workload execution time")
        .set(static_cast<double>(result.cycles));

    collectMetrics(result);

    result.checkFailures = workload.check(*this);
    for (auto &v : checker.sweepQuiesced())
        result.checkFailures.push_back(std::move(v));
    if (_races) {
        result.races =
            _races->finalize(result.workload, result.config);
        for (const analysis::RaceRecord &race : result.races.races) {
            if (!race.suppressed)
                result.checkFailures.push_back(
                    analysis::describeRace(race));
        }
        std::uint64_t described =
            result.races.races.size() - result.races.racesSuppressed;
        if (result.races.failureCount() > described) {
            result.checkFailures.push_back(
                std::to_string(result.races.failureCount() -
                               described) +
                " further race(s) past the record cap");
        }
    }
    stamp_host(result);
    return result;
}

} // namespace nosync
