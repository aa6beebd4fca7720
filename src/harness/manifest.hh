/**
 * @file
 * Run provenance manifests. Every evaluationMatrix cell records what was
 * run (system, algorithm, dataset, seed), against which code (git SHA
 * baked in at build time) and which configuration (an FNV-1a hash over
 * every config field), how it ended (outcome), and what it cost
 * (simulated seconds + wall-clock load/sim/validate split). The manifest
 * is written as manifest.json next to the result cache, so a cached
 * figure can always be traced back to the exact runs that produced it.
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
#include "harness/experiment.hh"

namespace gds::harness
{

/** FNV-1a 64-bit hash (provenance fingerprints, not cryptography). */
std::uint64_t fnv1a(std::string_view data);

/** 16-digit lowercase hex rendering of a 64-bit hash. */
std::string hashHex(std::uint64_t value);

/** Fingerprint over every GdsConfig field (HBM geometry included). */
std::string configHash(const core::GdsConfig &cfg);

/** Fingerprint over every GraphicionadoConfig field. */
std::string configHash(const baseline::GraphicionadoConfig &cfg);

/** Fingerprint over every GunrockConfig field. */
std::string configHash(const baseline::GunrockConfig &cfg);

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
    /** Process peak RSS in bytes when the cell finished (the memory
     *  footprint track, ROADMAP item 3); 0 when the probe is
     *  unavailable. Monotone across a run: the high-water mark as of
     *  this cell, not the cell's own footprint in isolation. */
    double peakRssBytes = 0.0;
};

/**
 * Thread-safe collection of cell provenance, serialized as one JSON
 * object: {"gitSha": ..., "scaleDivisor": ..., "cells": [...]}.
 */
class Manifest
{
  public:
    Manifest() = default;

    Manifest(const Manifest &) = delete;
    Manifest &operator=(const Manifest &) = delete;

    void add(ManifestCell cell);
    std::size_t size() const;

    void write(std::ostream &os) const;

    /** write() to @p path; returns false (and warns) on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    mutable std::mutex mu;
    std::vector<ManifestCell> cells;
};

} // namespace gds::harness
