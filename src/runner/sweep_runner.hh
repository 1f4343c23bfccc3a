/**
 * @file
 * Parallel sweep execution.
 *
 * Every quantitative result in this repo comes from a matrix of
 * independent (workload x config x seed) simulations. SweepRunner
 * fans those jobs out across host threads: each job builds its own
 * System (and thus its own EventQueue, RNG, and stats), so per-job
 * determinism is untouched, and results land in a pre-sized vector
 * at their job index, so aggregation order — and therefore every
 * table and figure — is bitwise identical to a serial run.
 *
 * Scheduling is self-stealing: workers claim the next unclaimed job
 * index from a shared atomic counter, which load-balances matrices
 * whose cells differ wildly in cost (a GD spin-herd cell can run 10x
 * longer than its DD neighbour).
 */

#ifndef RUNNER_SWEEP_RUNNER_HH
#define RUNNER_SWEEP_RUNNER_HH

#include <cstddef>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

namespace nosync
{

class SweepRunner
{
  public:
    /** @p jobs worker threads; 0 means one per hardware thread. */
    explicit SweepRunner(unsigned jobs = 1);

    /**
     * Invoke @p fn(i) for every i in [0, n), using up to jobs()
     * threads. Returns when every job has finished. With
     * jobs() == 1 the calls happen inline on the calling thread, in
     * index order — the serial reference behavior.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t)> &fn);

    /**
     * Map @p fn over [0, n) and collect the results in job-index
     * order. @p fn must be safe to call concurrently from multiple
     * threads; its result type must be default-constructible and
     * movable.
     */
    template <typename Fn>
    auto
    map(std::size_t n, Fn &&fn)
        -> std::vector<std::invoke_result_t<Fn &, std::size_t>>
    {
        std::vector<std::invoke_result_t<Fn &, std::size_t>> out(n);
        forEach(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * Serialized progress line to stderr ("  running NN on DD...").
     * Jobs running on worker threads must use this instead of writing
     * std::cerr directly, or lines interleave mid-character.
     */
    static void log(const std::string &line);

    /** Resolve a --jobs=N request: 0 means one per hardware thread. */
    static unsigned resolveJobs(unsigned requested);

  private:
    unsigned _jobs;
};

} // namespace nosync

#endif // RUNNER_SWEEP_RUNNER_HH
