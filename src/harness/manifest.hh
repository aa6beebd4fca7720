/**
 * @file
 * Run provenance manifests. Every evaluationMatrix cell records what was
 * run (system, algorithm, dataset, seed), against which code (git SHA
 * baked in at build time) and which configuration (an FNV-1a hash over
 * every field the config's fields() lists), how it ended (outcome), and
 * what it cost (simulated seconds + wall-clock load/sim/validate split).
 * The manifest is written as manifest.json next to the result cache, so
 * a cached figure can always be traced back to the exact runs that
 * produced it. The same fields() walk backs gds_sim's --set.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/graphicionado.hh"
#include "baseline/gunrock_sim.hh"
#include "core/config.hh"
#include "harness/dataset_pool.hh"
#include "harness/experiment.hh"

namespace gds::harness
{

/** FNV-1a 64-bit hash (provenance fingerprints, not cryptography). */
std::uint64_t fnv1a(std::string_view data);

/** 16-digit lowercase hex rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t value);

/** Fingerprint over every field the config's fields() lists (HBM
 *  geometry included), tagged with the model. */
std::string configHash(const core::GdsConfig &cfg);
std::string configHash(const baseline::GraphicionadoConfig &cfg);
std::string configHash(const baseline::GunrockConfig &cfg);

/** One config per simulated system: what gds_sim --set edits. */
struct SystemConfigs
{
    core::GdsConfig gds;
    baseline::GraphicionadoConfig gi;
    baseline::GunrockConfig gunrock;
};

/**
 * Apply one `<gds|gi|gunrock>.<name>=<value>` setting, <name> as the
 * config's fields() lists it (`gds.hbm.tCl=12`): a bool takes true or
 * false, a number must parse and fit its member. Contracts are left to
 * the caller, so settings may pass through an invalid combination.
 * @throws ConfigError on any malformed, unknown or unfit setting.
 */
void setConfigField(SystemConfigs &configs, const std::string &setting);

/** The git SHA this binary was built from ("unknown" outside a repo). */
const char *buildGitSha();

/** Provenance of one evaluation cell. */
struct ManifestCell
{
    std::string key;        ///< result-cache key
    /** The cell's record: what ran, its config hash, outcome, simulated
     *  seconds and wall-clock load/sim/validate split. */
    RunRecord record;
    std::uint64_t seed = 0; ///< dataset generator seed
    bool cached = false;    ///< served from the result cache, not re-run
    /** Process peak RSS in bytes read when the cell finished (the
     *  memory footprint track, ROADMAP item 3); 0 when the probe is
     *  unavailable. The high-water mark as of this cell, not the cell's
     *  own footprint in isolation, so it never decreases along the
     *  order in which cells finished. */
    double peakRssBytes = 0.0;
};

/**
 * Thread-safe collection of cell provenance, serialized as one JSON
 * object: {"gitSha": ..., "scaleDivisor": ..., "datasetPoolHighWater":
 * {"resident": ..., "mappedBytes": ..., "heapBytes": ...}, "cells": [...]}.
 */
class Manifest
{
  public:
    Manifest() = default;

    Manifest(const Manifest &) = delete;
    Manifest &operator=(const Manifest &) = delete;

    void add(ManifestCell cell);
    std::size_t size() const;

    /** Record the run's DatasetPool high-water marks. */
    void setPoolHighWater(const DatasetPool::Usage &usage);

    void write(std::ostream &os) const;

    /** write() to @p path; returns false (and warns) on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<ManifestCell> cells;
    DatasetPool::Usage poolHighWater;
};

} // namespace gds::harness
