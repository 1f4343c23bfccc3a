#include "runner/bench_json.hh"

#include <fstream>

#include "energy/energy_model.hh"
#include "noc/traffic.hh"
#include "runner/json_writer.hh"

namespace nosync
{

bool
SweepRecord::writeJson(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;

    double total_host_ms = 0.0;
    std::uint64_t total_events = 0;
    for (const auto &cell : cells) {
        total_host_ms += cell.result.host.millis;
        total_events += cell.result.host.eventsExecuted;
    }

    JsonWriter json(os);
    json.beginObject();
    json.key("harness").value(harness);
    json.key("jobs").value(jobs);
    json.key("wall_ms").value(wallMillis);
    json.key("total_events").value(total_events);
    json.key("sim_ms").value(total_host_ms);
    json.key("events_per_sec")
        .value(total_host_ms > 0.0
                   ? static_cast<double>(total_events) * 1000.0 /
                         total_host_ms
                   : 0.0);
    json.key("cells").beginArray();
    for (const auto &cell : cells) {
        const RunResult &r = cell.result;
        json.beginObject();
        json.key("cell").value(cell.spec.toLine());
        json.key("workload").value(r.workload);
        json.key("config").value(r.config);
        json.key("scale_percent").value(cell.spec.scale);
        if (cell.spec.faultSeed != 0)
            json.key("fault_seed").value(cell.spec.faultSeed);
        json.key("cycles").value(r.cycles);
        json.key("energy_total").value(r.energyTotal);
        json.key("traffic_total").value(r.trafficTotal);
        json.key("energy").beginObject();
        for (std::size_t c = 0; c < kNumEnergyComponents; ++c)
            json.key(energyComponentNames()[c]).value(r.energy[c]);
        json.endObject();
        json.key("traffic").beginObject();
        for (std::size_t c = 0; c < kNumTrafficClasses; ++c)
            json.key(trafficClassNames()[c]).value(r.traffic[c]);
        json.endObject();
        if (!r.syncLatency.empty()) {
            json.key("latency").beginObject();
            for (const auto &lat : r.syncLatency) {
                json.key(lat.cls).beginObject();
                json.key("count").value(lat.count);
                json.key("p50").value(lat.p50);
                json.key("p95").value(lat.p95);
                json.key("max").value(lat.max);
                json.endObject();
            }
            json.endObject();
        }
        json.key("host_ms").value(r.host.millis);
        json.key("events").value(r.host.eventsExecuted);
        json.key("events_per_sec")
            .value(r.host.millis > 0.0
                       ? static_cast<double>(r.host.eventsExecuted) *
                             1000.0 / r.host.millis
                       : 0.0);
        json.key("ok").value(r.ok());
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
    return static_cast<bool>(os);
}

} // namespace nosync
