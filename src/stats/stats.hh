/**
 * @file
 * Lightweight statistics framework in the spirit of gem5's stats package.
 *
 * Every simulator component owns a stats::Group and registers named
 * scalars / vectors / distributions against it. Groups form a tree that can
 * be dumped as a human-readable table or queried programmatically by the
 * experiment harness (which is how every figure of the paper is produced).
 */

#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/log.hh"

namespace gds::stats
{

class Group;

/** Common base: a named, described statistic belonging to a group. */
class Stat
{
  public:
    Stat(Group *parent, std::string stat_name, std::string stat_desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Render this stat's rows into the dump. */
    virtual void dump(std::ostream &os, const std::string &prefix) const = 0;

    /** Reset the statistic to its initial state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A single accumulating value. */
class Scalar : public Stat
{
  public:
    Scalar(Group *parent, std::string stat_name, std::string stat_desc)
        : Stat(parent, std::move(stat_name), std::move(stat_desc)) {}

    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    Scalar &operator=(double v) { _value = v; return *this; }

    double value() const { return _value; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** A fixed-size vector of accumulating values (e.g. one per PE). */
class Vector : public Stat
{
  public:
    Vector(Group *parent, std::string stat_name, std::string stat_desc,
           std::size_t size)
        : Stat(parent, std::move(stat_name), std::move(stat_desc)),
          values(size, 0.0)
    {}

    double &operator[](std::size_t i)
    {
        // gds-lint: allow(no-naked-assert) per-event hot path; stat
        // vectors are sized at construction and indexed by model code
        gds_assert(i < values.size(), "vector stat index %zu out of %zu",
                   i, values.size());
        return values[i];
    }

    double at(std::size_t i) const { return values.at(i); }
    std::size_t size() const { return values.size(); }
    double total() const;
    double max() const;
    double min() const;
    double mean() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override { values.assign(values.size(), 0.0); }

  private:
    std::vector<double> values;
};

/**
 * A sampled distribution over power-of-two buckets, used for degree
 * histograms and latency profiles (Fig. 2 uses exactly these buckets:
 * [0,0] [1,2] [3,4] [5,8] [9,16] [17,32] [33,64] and >64).
 */
class Distribution : public Stat
{
  public:
    Distribution(Group *parent, std::string stat_name, std::string stat_desc);

    /** Record one sample of the given magnitude. */
    void sample(std::uint64_t v);

    std::uint64_t count() const { return samples; }
    std::uint64_t bucketCount(std::size_t b) const { return buckets.at(b); }
    static std::size_t numBuckets() { return 8; }
    static std::string bucketLabel(std::size_t b);

    /** Raw accumulators, exposed for mid-run checkpointing. */
    std::uint64_t sampleSum() const { return sum; }
    std::uint64_t maxSampled() const { return maxSample; }

    /**
     * Checkpoint restore: overwrite the raw accumulators wholesale.
     * @throws CheckpointError when @p bucket_counts has the wrong arity
     * (the checkpoint was produced by an incompatible build).
     */
    void
    restoreRaw(const std::vector<std::uint64_t> &bucket_counts,
               std::uint64_t sample_count, std::uint64_t sample_sum,
               std::uint64_t max_sample)
    {
        gds_require(bucket_counts.size() == buckets.size(), CheckpointError,
                    "distribution '%s' restore carries %zu buckets, "
                    "this build has %zu",
                    name().c_str(), bucket_counts.size(), buckets.size());
        buckets = bucket_counts;
        samples = sample_count;
        sum = sample_sum;
        maxSample = max_sample;
    }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> buckets;
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t maxSample = 0;
};

/**
 * A node in the stats hierarchy. Components own one and register stats and
 * child groups against it; the tree is dumped depth-first.
 */
class Group
{
  public:
    Group(Group *parent, std::string group_name);
    ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return _name; }

    /** Fully qualified dotted path from the root. */
    std::string path() const;

    /** Dump this group and all children. */
    void dump(std::ostream &os) const;

    /** Reset every stat beneath this group. */
    void resetAll();

    /** Find a scalar by dotted path relative to this group; panics if absent. */
    const Scalar &scalar(const std::string &dotted_path) const;

    /** Find a vector by dotted path relative to this group; panics if absent. */
    const Vector &vector(const std::string &dotted_path) const;

    /** Stats registered directly on this group (tree traversal). */
    const std::vector<Stat *> &stats() const { return statList; }
    /** Child groups (tree traversal). */
    const std::vector<Group *> &childGroups() const { return children; }

  private:
    friend class Stat;
    void addStat(Stat *s);
    void addChild(Group *g);
    void removeChild(Group *g);
    const Stat *find(const std::string &dotted_path) const;

    Group *parent;
    std::string _name;
    std::vector<Stat *> statList;
    std::map<std::string, Stat *> statMap;
    std::vector<Group *> children;
};

} // namespace gds::stats
