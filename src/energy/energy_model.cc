#include "energy/energy_model.hh"

namespace gds::energy
{

AcceleratorBreakdown
EnergyModel::gdsBreakdown(const core::GdsConfig &cfg) const
{
    AcceleratorBreakdown b;
    b.dispatcher.powerW = lib.dePowerW * cfg.numPes;
    b.dispatcher.areaMm2 = lib.deAreaMm2 * cfg.numPes;
    b.processor.powerW = lib.pePowerW * cfg.numPes;
    b.processor.areaMm2 = lib.peAreaMm2 * cfg.numPes;

    // Crossbar cost scales with radix^2 (wire dominated).
    const double radix_sq_scale =
        static_cast<double>(cfg.numUes) * cfg.numUes / (128.0 * 128.0);
    b.updater.powerW = lib.uePowerW * cfg.numUes +
                       lib.crossbarPowerWAtRadix128 * radix_sq_scale;
    b.updater.areaMm2 = lib.ueAreaMm2 * cfg.numUes +
                        lib.crossbarAreaMm2AtRadix128 * radix_sq_scale;

    b.prefetcher.powerW = lib.prefetcherPowerW;
    b.prefetcher.areaMm2 = lib.prefetcherAreaMm2;
    return b;
}

AcceleratorBreakdown
EnergyModel::graphicionadoBreakdown(
    const baseline::GraphicionadoConfig &cfg) const
{
    AcceleratorBreakdown b;
    // Graphicionado has no dispatcher; streams subsume processing and
    // updating; the dominant cost is the 64 MB eDRAM.
    b.processor.powerW = lib.streamPowerW * cfg.numStreams;
    b.processor.areaMm2 = lib.streamAreaMm2 * cfg.numStreams;
    const double edram_mb =
        static_cast<double>(cfg.onChipBytes) / (1024.0 * 1024.0);
    b.updater.powerW = lib.edramPowerWPerMb * edram_mb;
    b.updater.areaMm2 = lib.edramAreaMm2PerMb * edram_mb;
    b.prefetcher.powerW = lib.prefetcherPowerW * 2.0; // per-stream units
    b.prefetcher.areaMm2 = lib.prefetcherAreaMm2 * 2.0;
    return b;
}

namespace
{

EnergyBreakdown
runEnergy(const AcceleratorBreakdown &b, Cycle cycles, double hbm_j)
{
    const double seconds = static_cast<double>(cycles) * 1e-9; // 1 GHz
    EnergyBreakdown e;
    e.dispatcherJ = b.dispatcher.powerW * seconds;
    e.processorJ = b.processor.powerW * seconds;
    e.updaterJ = b.updater.powerW * seconds;
    e.prefetcherJ = b.prefetcher.powerW * seconds;
    e.hbmJ = hbm_j;
    return e;
}

} // namespace

EnergyBreakdown
EnergyModel::gdsEnergy(const core::GdsConfig &cfg, Cycle cycles,
                       std::uint64_t hbm_bytes) const
{
    return runEnergy(gdsBreakdown(cfg), cycles, hbmEnergyJ(hbm_bytes));
}

EnergyBreakdown
EnergyModel::graphicionadoEnergy(const baseline::GraphicionadoConfig &cfg,
                                 Cycle cycles,
                                 std::uint64_t hbm_bytes) const
{
    return runEnergy(graphicionadoBreakdown(cfg), cycles,
                     hbmEnergyJ(hbm_bytes));
}

} // namespace gds::energy
