#include "core/report.hh"

#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace nosync
{

double
metricOf(const RunResult &run, int metric)
{
    switch (metric) {
      case 0:
        return static_cast<double>(run.cycles);
      case 1:
        return run.energyTotal;
      case 2:
        return run.trafficTotal;
      default:
        panic("unknown metric ", metric);
    }
}

std::string
renderFigure(const std::vector<WorkloadResults> &results, int metric,
             std::size_t baseline, const std::string &title)
{
    std::ostringstream os;
    os << "== " << title << " ==\n";
    if (results.empty())
        return os.str();

    os << std::left << std::setw(12) << "benchmark";
    for (const auto &run : results.front().runs)
        os << std::right << std::setw(10) << run.config;
    os << "\n";

    for (const auto &wr : results) {
        os << std::left << std::setw(12) << wr.workload;
        double base = metricOf(wr.runs.at(baseline), metric);
        for (const auto &run : wr.runs) {
            double v = base > 0.0 ? metricOf(run, metric) / base : 0.0;
            os << std::right << std::setw(9) << std::fixed
               << std::setprecision(2) << (v * 100.0) << "%";
        }
        os << "\n";
    }

    os << std::left << std::setw(12) << "AVG";
    for (std::size_t c = 0; c < results.front().runs.size(); ++c) {
        double avg = averageNormalized(results, metric, c, baseline);
        os << std::right << std::setw(9) << std::fixed
           << std::setprecision(2) << (avg * 100.0) << "%";
    }
    os << "\n";
    return os.str();
}

double
averageNormalized(const std::vector<WorkloadResults> &results,
                  int metric, std::size_t config, std::size_t baseline)
{
    if (results.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &wr : results) {
        double base = metricOf(wr.runs.at(baseline), metric);
        double v = metricOf(wr.runs.at(config), metric);
        sum += base > 0.0 ? v / base : 0.0;
    }
    return sum / static_cast<double>(results.size());
}

namespace
{

std::string
renderBreakdown(const std::vector<WorkloadResults> &results,
                std::size_t baseline,
                const std::vector<std::string> &part_names,
                int metric,
                const std::function<double(const RunResult &,
                                           std::size_t)> &part)
{
    std::ostringstream os;
    for (const auto &wr : results) {
        double base = metricOf(wr.runs.at(baseline), metric);
        os << wr.workload << ":\n";
        for (const auto &run : wr.runs) {
            os << "  " << std::left << std::setw(6) << run.config;
            for (std::size_t p = 0; p < part_names.size(); ++p) {
                double v =
                    base > 0.0 ? part(run, p) / base * 100.0 : 0.0;
                os << " " << part_names[p] << "=" << std::fixed
                   << std::setprecision(1) << v << "%";
            }
            os << "\n";
        }
    }
    return os.str();
}

} // namespace

std::string
renderEnergyBreakdown(const std::vector<WorkloadResults> &results,
                      std::size_t baseline)
{
    return renderBreakdown(
        results, baseline, energyComponentNames(), 1,
        [](const RunResult &run, std::size_t p) {
            return run.energy[p];
        });
}

std::string
renderTrafficBreakdown(const std::vector<WorkloadResults> &results,
                       std::size_t baseline)
{
    return renderBreakdown(
        results, baseline, trafficClassNames(), 2,
        [](const RunResult &run, std::size_t p) {
            return run.traffic[p];
        });
}

std::string
renderHangReport(const HangReport &report)
{
    std::ostringstream os;
    os << "== HANG REPORT ==\n";
    os << "code:      " << report.reasonCode << "\n";
    os << "reason:    " << report.reason << "\n";
    os << "tick:      " << report.tick << "\n";
    os << "reproduce: workload=" << report.workload
       << " config=" << report.config;
    if (report.faultSeed != 0)
        os << " fault-seed=" << report.faultSeed;
    else
        os << " (fault injection off)";
    os << "\n";

    os << "-- thread blocks (" << report.tbWaits.size()
       << " incomplete) --\n";
    for (const auto &tb : report.tbWaits)
        os << "  " << tb << "\n";

    os << "-- in-flight mesh messages (" << report.meshMessages.size()
       << ") --\n";
    for (const auto &msg : report.meshMessages) {
        os << "  " << msg.src << " -> " << msg.dst << " "
           << trafficClassNames()[static_cast<std::size_t>(msg.cls)]
           << " " << msg.flits << " flits, sent tick " << msg.sent
           << ", arrives tick " << msg.arrives
           << (msg.duplicate ? " (injected duplicate)" : "") << "\n";
    }

    os << "-- non-quiescent controllers (" << report.controllers.size()
       << ") --\n";
    for (const auto &snap : report.controllers) {
        os << "  " << snap.summary() << "\n";
        for (const auto &line : snap.detail)
            os << "    " << line << "\n";
    }

    os << "-- invariant sweep at hang tick --\n";
    if (report.violations.empty()) {
        os << "  clean (hang is a liveness failure, not a protocol "
              "state corruption)\n";
    } else {
        for (const auto &v : report.violations)
            os << "  " << v << "\n";
    }
    return os.str();
}

} // namespace nosync
