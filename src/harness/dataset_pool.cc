#include "harness/dataset_pool.hh"

#include <chrono>
#include <utility>

#include "common/debug.hh"
#include "common/log.hh"
#include "harness/experiment.hh"

namespace gds::harness
{

DatasetPool::DatasetPool()
    : loader([](const std::string &name, bool weighted) {
          return loadDataset(name, weighted);
      })
{
}

DatasetPool::DatasetPool(Loader dataset_loader)
    : loader(std::move(dataset_loader))
{
    gds_require(static_cast<bool>(loader), ConfigError,
                "DatasetPool needs a loader");
}

std::string
DatasetPool::key(const std::string &name, bool weighted)
{
    return name + (weighted ? "|w" : "|u");
}

void
DatasetPool::expect(const std::string &name, bool weighted)
{
    const std::lock_guard<std::mutex> lock(mu);
    ++slots[key(name, weighted)].remaining;
}

DatasetPool::GraphPtr
DatasetPool::get(const std::string &name, bool weighted)
{
    Slot *slot = nullptr;
    bool load_here = false;
    {
        const std::lock_guard<std::mutex> lock(mu);
        slot = &slots[key(name, weighted)];
        gds_assert(slot->remaining > 0,
                   "dataset %s fetched with no registered consumers",
                   name.c_str());
        if (!slot->future.valid()) {
            slot->future = slot->promise.get_future().share();
            load_here = true;
        }
    }
    // The load runs outside the pool lock so distinct datasets load
    // concurrently; waiters for *this* dataset block on the future.
    if (load_here) {
        try {
            log::infof("harness", {}, "loading %s%s", name.c_str(),
                       weighted ? " (weighted)" : "");
            slot->promise.set_value(
                std::make_shared<graph::Csr>(loader(name, weighted)));
        } catch (...) {
            slot->promise.set_exception(std::current_exception());
        }
    }
    return slot->future.get();
}

void
DatasetPool::release(const std::string &name, bool weighted)
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = slots.find(key(name, weighted));
    gds_assert(it != slots.end() && it->second.remaining > 0,
               "dataset %s released more often than expected", name.c_str());
    if (--it->second.remaining == 0)
        slots.erase(it);
}

std::size_t
DatasetPool::residentCount() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto &[k, slot] : slots)
        if (slot.future.valid())
            ++n;
    return n;
}

std::vector<std::string>
DatasetPool::residentKeys() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> keys;
    for (const auto &[k, slot] : slots)
        if (slot.future.valid())
            keys.push_back(k); // map iteration order is already sorted
    return keys;
}

namespace
{

/** The slot's graph if fully loaded; null while loading or failed. */
DatasetPool::GraphPtr
loadedGraph(const std::shared_future<DatasetPool::GraphPtr> &future)
{
    if (!future.valid() ||
        future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
        return nullptr;
    try {
        return future.get();
    } catch (...) {
        return nullptr; // failed load: nothing resident to account
    }
}

} // namespace

std::uint64_t
DatasetPool::mappedBytes() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::uint64_t total = 0;
    for (const auto &[k, slot] : slots) {
        if (const GraphPtr g = loadedGraph(slot.future))
            total += g->mappedBytes();
    }
    return total;
}

std::uint64_t
DatasetPool::heapBytes() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::uint64_t total = 0;
    for (const auto &[k, slot] : slots) {
        if (const GraphPtr g = loadedGraph(slot.future))
            total += g->heapBytes();
    }
    return total;
}

std::size_t
DatasetPool::pendingConsumers() const
{
    const std::lock_guard<std::mutex> lock(mu);
    std::size_t n = 0;
    for (const auto &[k, slot] : slots)
        n += slot.remaining;
    return n;
}

} // namespace gds::harness
