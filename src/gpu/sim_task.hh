/**
 * @file
 * Coroutine task type for simulated thread-block programs.
 *
 * Workload code is written as straight-line C++20 coroutines that
 * co_await memory operations; the awaiters translate into the
 * callback-based controller interfaces and resume the coroutine from
 * event-queue callbacks. A SimTask can also be co_awaited from
 * another SimTask, so workloads can factor helpers (e.g. lock
 * acquire/release) into sub-coroutines.
 */

#ifndef GPU_SIM_TASK_HH
#define GPU_SIM_TASK_HH

#include <coroutine>
#include <exception>
#include <utility>

#include "sim/small_fn.hh"

namespace nosync
{

/** Completion callback of a root task (three words inline). */
using TaskDoneFn = SmallFn<void(), 24>;

/** A lazily-started, self-destroying coroutine task. */
class SimTask
{
  public:
    struct promise_type
    {
        /** Continuation when awaited by a parent task. */
        std::coroutine_handle<> continuation;
        /** Completion callback when started as a root task. */
        TaskDoneFn onDone;

        SimTask
        get_return_object()
        {
            return SimTask{
                std::coroutine_handle<promise_type>::from_promise(
                    *this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(
                std::coroutine_handle<promise_type> h) noexcept
            {
                auto continuation = h.promise().continuation;
                auto done = std::move(h.promise().onDone);
                h.destroy();
                if (done) {
                    done();
                    return std::noop_coroutine();
                }
                if (continuation)
                    return continuation;
                return std::noop_coroutine();
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { std::terminate(); }
    };

    SimTask() = default;

    explicit SimTask(std::coroutine_handle<promise_type> h) : _h(h) {}

    SimTask(SimTask &&other) noexcept
        : _h(std::exchange(other._h, nullptr))
    {}

    SimTask &
    operator=(SimTask &&other) noexcept
    {
        if (this != &other) {
            if (_h)
                _h.destroy();
            _h = std::exchange(other._h, nullptr);
        }
        return *this;
    }

    SimTask(const SimTask &) = delete;
    SimTask &operator=(const SimTask &) = delete;

    ~SimTask()
    {
        // Only never-started tasks still own their frame here;
        // started tasks destroy themselves at final suspend.
        if (_h)
            _h.destroy();
    }

    /** Start as a root task; @p on_done fires at completion. */
    void
    start(TaskDoneFn on_done)
    {
        auto h = std::exchange(_h, nullptr);
        h.promise().onDone = std::move(on_done);
        h.resume();
    }

    /** Awaiting a SimTask runs it to completion, then resumes. */
    auto
    operator co_await() &&
    {
        struct Awaiter
        {
            std::coroutine_handle<promise_type> h;

            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(std::coroutine_handle<> parent) noexcept
            {
                h.promise().continuation = parent;
                return h;
            }

            void await_resume() noexcept {}
        };
        return Awaiter{std::exchange(_h, nullptr)};
    }

  private:
    std::coroutine_handle<promise_type> _h;
};

} // namespace nosync

#endif // GPU_SIM_TASK_HH
