#include "runner/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <mutex>
#include <thread>

namespace nosync
{

namespace
{

std::mutex log_mutex;

} // namespace

SweepRunner::SweepRunner(unsigned jobs) : _jobs(resolveJobs(jobs)) {}

unsigned
SweepRunner::resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
}

void
SweepRunner::log(const std::string &line)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    std::cerr << line << "\n";
}

void
SweepRunner::forEach(std::size_t n,
                     const std::function<void(std::size_t)> &fn)
{
    if (_jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;)
            fn(i);
    };

    std::size_t num_threads =
        std::min<std::size_t>(_jobs, n);
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (std::size_t t = 0; t < num_threads; ++t)
        threads.emplace_back(worker);
    for (auto &thread : threads)
        thread.join();
}

} // namespace nosync
