/**
 * @file
 * Refcounted, once-only dataset loading shared by concurrent consumers:
 * the evaluation matrix's workers (PR 2) and, since the simulation
 * service, every daemon job that names the same dataset. The first
 * consumer needing a (name, weighted) combination loads it while the
 * others block on a shared future — no duplicate generation, no race on
 * the on-disk binary dataset cache — and the graph is freed as soon as
 * its last registered consumer releases it.
 *
 * Lifecycle per consumer: expect() reserves a reference (admission
 * time), get() fetches the shared graph (loading it on the first call),
 * release() drops the reference (always, whether or not get() was ever
 * called). The pool is safe to use from any number of threads.
 *
 * The pool also keeps high-water marks of what it holds (resident
 * graphs, mapped bytes, heap bytes), so a caller can check how many
 * graphs its consumer order kept alive at once.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/csr.hh"

namespace gds::harness
{

class DatasetPool
{
  public:
    using GraphPtr = std::shared_ptr<const graph::Csr>;

    /**
     * Maps a (name, weighted) pair to a loaded graph. The default
     * loader is harness::loadDataset (Table 4 datasets with the on-disk
     * binary cache); the simulation service installs a loader that also
     * understands ad-hoc RMAT requests.
     */
    using Loader =
        std::function<graph::Csr(const std::string &name, bool weighted)>;

    /** What the pool holds: graphs loaded or loading, and the file
     *  mappings and heap arrays of the loaded ones. */
    struct Usage
    {
        std::size_t resident = 0;
        std::uint64_t mappedBytes = 0;
        std::uint64_t heapBytes = 0;
    };

    /** Pool with the default Table 4 loader. */
    DatasetPool();

    /** Pool with a custom loader. */
    explicit DatasetPool(Loader dataset_loader);

    DatasetPool(const DatasetPool &) = delete;
    DatasetPool &operator=(const DatasetPool &) = delete;

    /** Register one consumer that may need (name, weighted). */
    void expect(const std::string &name, bool weighted);

    /**
     * Fetch the shared graph, loading it on the first call. Requires a
     * preceding expect(). A loader failure is rethrown to every waiter.
     */
    GraphPtr get(const std::string &name, bool weighted);

    /**
     * One consumer of (name, weighted) is done; free the graph after
     * the last one (whether or not it ever called get()).
     */
    void release(const std::string &name, bool weighted);

    /** Number of datasets currently loaded (or loading). */
    std::size_t residentCount() const;

    /** Keys ("name|w" / "name|u") of resident datasets, sorted. */
    std::vector<std::string> residentKeys() const;

    /** Total refcount over all slots (consumers not yet released). */
    std::size_t pendingConsumers() const;

    /**
     * Total bytes of live file mappings behind resident graphs
     * (mmap-served datasets; these pages are shared and reclaimable).
     * Still-loading slots count nothing until their load completes.
     */
    std::uint64_t mappedBytes() const;

    /** Total heap bytes of resident graphs' owned arrays. */
    std::uint64_t heapBytes() const;

    /**
     * The largest value each Usage field reached over the pool's
     * lifetime (each field's own maximum; they need not coincide). A
     * failed load counts as resident until released but adds no bytes.
     */
    Usage highWater() const;

  private:
    struct Slot
    {
        std::promise<GraphPtr> promise;
        std::shared_future<GraphPtr> future;
        unsigned remaining = 0;
        /** This slot's share of `now`'s byte totals. */
        std::uint64_t mappedBytes = 0;
        std::uint64_t heapBytes = 0;
    };

    static std::string key(const std::string &name, bool weighted);

    /** Fold `now` into `peak`; caller holds mu. */
    void notePeak();

    Loader loader;
    mutable std::mutex mu;
    std::map<std::string, Slot> slots; // node-stable under insert/erase
    Usage now;  ///< current totals, updated under mu
    Usage peak; ///< high-water marks of `now`
};

} // namespace gds::harness
