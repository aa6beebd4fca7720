/**
 * @file
 * Worker-pool scheduler shared by the experiment harness, the simulation
 * service and the graph build pipeline. Tasks are independent units of
 * work fanned out across a fixed pool of workers; determinism is
 * preserved by having each task write into a pre-assigned result slot
 * rather than by ordering the execution itself.
 *
 * This lives in common (not harness) so that lower layers — notably the
 * parallel COO→CSR build and the chunked graph generators in src/graph —
 * can share one pool implementation without a dependency cycle.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gds::common
{

/**
 * Worker-count policy for parallel work: the GDS_JOBS environment
 * variable when set to a positive integer, otherwise
 * std::thread::hardware_concurrency() (minimum 1). GDS_JOBS=1 forces the
 * strictly serial path.
 */
unsigned jobCount();

/**
 * A fixed-size pool of worker threads draining a FIFO task queue.
 *
 * Exceptions thrown by tasks are captured; wait() rethrows the first one
 * after the queue has fully drained, so no submitted work is silently
 * abandoned mid-flight. The destructor drains outstanding tasks and joins
 * every worker.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task; runs on an arbitrary worker. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished, then rethrow the
     * first exception any task raised (if any). Reusable: more tasks may
     * be submitted after a wait().
     */
    void wait();

    unsigned
    workerCount() const
    {
        return static_cast<unsigned>(threads.size());
    }

  private:
    void workerLoop();

    std::vector<std::thread> threads;
    std::deque<std::function<void()>> queue;
    std::mutex mu;
    std::condition_variable task_ready;
    std::condition_variable all_done;
    std::size_t running = 0;
    bool stopping = false;
    std::exception_ptr first_error;
};

/**
 * Run fn(0), ..., fn(n-1). With jobs <= 1 the calls happen strictly
 * serially on the calling thread in index order; otherwise on a pool of
 * min(jobs, n) workers in unspecified order. The first exception thrown
 * by any index is rethrown after all work has drained.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace gds::common
