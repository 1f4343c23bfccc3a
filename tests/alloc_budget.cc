/**
 * @file
 * Heap-allocation budget of the simulated access path.
 *
 * Runs System::run on a few small cells (FAM_G under GD, DD and DD+SE,
 * and one no-sync app under DD) with a counting global operator new,
 * prints each cell's exact run-phase allocation and event counts, and
 * fails if a cell makes more allocations per event than its budget.
 * It also counts the allocations and bytes made by constructing (and
 * tearing down) a 4x4 and a 12x12 DD System, and fails if a build
 * makes or asks for more than its exact budget.
 * The simulator is deterministic, so the counts only move when the
 * code does: a change that puts a std::function, a node container or
 * an over-sized closure back on the access path shows up here as a
 * budget failure rather than as a slower benchmark weeks later.
 *
 * Built as its own executable (the counting operator new would skew
 * every other test) and not registered under sanitizers, which
 * replace operator new themselves.
 *
 * Usage: alloc_budget   (exit status 0 = every cell within budget)
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "core/system.hh"
#include "workloads/registry.hh"

namespace
{

bool gCounting = false;
std::uint64_t gAllocs = 0;
std::uint64_t gBytes = 0;

void *
countedAlloc(std::size_t size)
{
    if (gCounting) {
        ++gAllocs;
        gBytes += size;
    }
    void *ptr = std::malloc(size == 0 ? 1 : size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

/** One budgeted cell: a workload at 1% scale under one protocol. */
struct Cell
{
    const char *workload;
    nosync::ProtocolConfig proto;
    /** Allocations per event the run phase may make. */
    double budget;
};

/** One budgeted System build: a dim x dim DD machine. */
struct Build
{
    unsigned dim;
    /** Allocations construction and destruction may make. */
    std::uint64_t budget;
    /** Bytes those allocations may ask for. */
    std::uint64_t byteBudget;
};

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *ptr) noexcept { std::free(ptr); }
void operator delete[](void *ptr) noexcept { std::free(ptr); }
void operator delete(void *ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void *ptr, std::size_t) noexcept { std::free(ptr); }

int
main()
{
    using nosync::ProtocolConfig;
    // Budgets: the counts measured once the end-of-run protocol check
    // kept its registered-word owners in one flat vector instead of a
    // map of per-word vectors (DESIGN.md section 10), plus headroom of
    // roughly a fifth. What remains on FAM_G is mostly sub-task
    // coroutine frames and L2 fetch waiter lists; SGEMM's is the
    // workload's own per-tile vectors and the rest of the end-of-run
    // protocol check.
    //   FAM_G  GD     3248 allocs / 512471 events = 0.0063
    //   FAM_G  DD     2258 allocs / 131902 events = 0.0171
    //   FAM_G  DD+SE  2739 allocs / 546771 events = 0.0050
    //   SGEMM  DD     7715 allocs / 135627 events = 0.0569
    const Cell cells[] = {
        {"FAM_G", ProtocolConfig::gd(), 0.0076},
        {"FAM_G", ProtocolConfig::dd(), 0.021},
        {"FAM_G", ProtocolConfig::ddse(), 0.0060},
        {"SGEMM", ProtocolConfig::dd(), 0.068},
    };

    bool ok = true;
    for (const Cell &cell : cells) {
        std::unique_ptr<nosync::Workload> workload =
            nosync::makeScaled(cell.workload, 1);
        nosync::SystemConfig config;
        config.protocol = cell.proto;
        nosync::System system(config);

        std::uint64_t before = gAllocs;
        gCounting = true;
        nosync::RunResult result = system.run(*workload);
        gCounting = false;
        std::uint64_t allocs = gAllocs - before;
        std::uint64_t events = result.host.eventsExecuted;

        double per_event =
            events == 0 ? 0.0 : static_cast<double>(allocs) / events;
        bool within = result.ok() && per_event <= cell.budget;
        std::printf("%-6s %-6s allocs=%llu events=%llu "
                    "allocs/event=%.4f budget=%.4f %s\n",
                    cell.workload, cell.proto.shortName().c_str(),
                    static_cast<unsigned long long>(allocs),
                    static_cast<unsigned long long>(events), per_event,
                    cell.budget,
                    !result.ok() ? "RUN FAILED"
                                 : (within ? "ok" : "OVER BUDGET"));
        ok = ok && within;
    }

    // Budgets: the exact counts once the mesh route table was built in
    // one exactly sized pass, scalar statistics moved into one value
    // array, and components joined their stat names in that array's
    // text buffer (DESIGN.md sections 10 and 11), down from 3216 and
    // 30951. No headroom: a build allocates the same on every run, so
    // one more allocation per controller is a set-up regression. The
    // byte budgets are the exact sizes once caches allocated frames
    // only for live sets (DESIGN.md section 10), down from 10761404
    // and 98655407: a cache that reserves its frames at build fails.
    const Build builds[] = {
        {4, 453, 248516},
        {12, 4136, 3452599},
    };
    for (const Build &build : builds) {
        nosync::SystemConfig config;
        config.protocol = ProtocolConfig::dd();
        config.topology.mesh.width = build.dim;
        config.topology.mesh.height = build.dim;
        config.topology.cusPerDevice = build.dim * build.dim - 1;

        std::uint64_t before = gAllocs;
        std::uint64_t bytes_before = gBytes;
        gCounting = true;
        { nosync::System system(config); }
        gCounting = false;
        std::uint64_t allocs = gAllocs - before;
        std::uint64_t bytes = gBytes - bytes_before;

        bool within = allocs <= build.budget && bytes <= build.byteBudget;
        std::printf("build  %ux%u DD allocs=%llu budget=%llu "
                    "bytes=%llu budget=%llu %s\n",
                    build.dim, build.dim,
                    static_cast<unsigned long long>(allocs),
                    static_cast<unsigned long long>(build.budget),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(build.byteBudget),
                    within ? "ok" : "OVER BUDGET");
        ok = ok && within;
    }
    return ok ? 0 : 1;
}
