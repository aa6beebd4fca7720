#include "harness/dataset_pool.hh"

#include <algorithm>
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
            ++now.resident;
            notePeak();
        }
    }
    // The load runs outside the pool lock so distinct datasets load
    // concurrently; waiters for *this* dataset block on the future.
    if (load_here) {
        try {
            log::infof("harness", {}, "loading %s%s", name.c_str(),
                       weighted ? " (weighted)" : "");
            auto g = std::make_shared<graph::Csr>(loader(name, weighted));
            {
                // The loading consumer has not released yet, so the slot
                // cannot be erased before its bytes are accounted.
                const std::lock_guard<std::mutex> lock(mu);
                slot->mappedBytes = g->mappedBytes();
                slot->heapBytes = g->heapBytes();
                now.mappedBytes += slot->mappedBytes;
                now.heapBytes += slot->heapBytes;
                notePeak();
            }
            slot->promise.set_value(std::move(g));
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
    if (--it->second.remaining == 0) {
        const Slot &slot = it->second;
        if (slot.future.valid())
            --now.resident;
        now.mappedBytes -= slot.mappedBytes;
        now.heapBytes -= slot.heapBytes;
        slots.erase(it);
    }
}

void
DatasetPool::notePeak()
{
    peak.resident = std::max(peak.resident, now.resident);
    peak.mappedBytes = std::max(peak.mappedBytes, now.mappedBytes);
    peak.heapBytes = std::max(peak.heapBytes, now.heapBytes);
}

std::size_t
DatasetPool::residentCount() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return now.resident;
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

std::uint64_t
DatasetPool::mappedBytes() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return now.mappedBytes;
}

std::uint64_t
DatasetPool::heapBytes() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return now.heapBytes;
}

DatasetPool::Usage
DatasetPool::highWater() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return peak;
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
