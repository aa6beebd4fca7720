#include "common/parallel.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/parse.hh"

namespace gds::common
{

unsigned
jobCount()
{
    const unsigned fallback =
        std::max(1u, std::thread::hardware_concurrency());
    // Strict parse: "GDS_JOBS=-1" used to strtoul-wrap to ~4 billion
    // workers; parseEnvU64 warns and falls back instead. The cap keeps a
    // fat-fingered "GDS_JOBS=1000000" from exhausting thread handles.
    return static_cast<unsigned>(
        common::parseEnvU64("GDS_JOBS", fallback, 1, 4096));
}

ThreadPool::ThreadPool(unsigned workers)
{
    workers = std::max(1u, workers);
    threads.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    task_ready.notify_all();
    for (std::thread &t : threads)
        t.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        const std::lock_guard<std::mutex> lock(mu);
        gds_assert(!stopping, "submit() on a stopping ThreadPool");
        queue.push_back(std::move(task));
    }
    task_ready.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [this] { return queue.empty() && running == 0; });
    if (first_error) {
        const std::exception_ptr error = first_error;
        first_error = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        task_ready.wait(lock,
                        [this] { return stopping || !queue.empty(); });
        if (queue.empty())
            return; // stopping, and nothing left to drain
        std::function<void()> task = std::move(queue.front());
        queue.pop_front();
        ++running;
        lock.unlock();
        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }
        lock.lock();
        if (error && !first_error)
            first_error = error;
        --running;
        if (queue.empty() && running == 0)
            all_done.notify_all();
    }
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(static_cast<unsigned>(
        std::min<std::size_t>(jobs, n)));
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace gds::common
