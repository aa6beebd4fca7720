#include "harness/manifest.hh"

#include <fstream>
#include <sstream>

#include "common/bitutil.hh"
#include "common/jsonio.hh"
#include "common/log.hh"
#include "graph/datasets.hh"

namespace gds::harness
{

std::uint64_t
fnv1a(std::string_view data)
{
    return fnv1a64(data.data(), data.size());
}

std::string
hashHex(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

namespace
{

/** Field-by-field serializer feeding fnv1a: every field is named, so two
 *  configs differing in any single knob hash differently, and reordering
 *  the struct cannot silently collide. */
class FieldHasher
{
  public:
    template <typename T>
    FieldHasher &
    field(const char *fieldName, const T &value)
    {
        os << fieldName << '=' << value << ';';
        return *this;
    }

    std::string hex() const { return hashHex(fnv1a(os.str())); }

  private:
    std::ostringstream os;
};

void
hashHbm(FieldHasher &h, const mem::HbmConfig &m)
{
    h.field("hbm.numChannels", m.numChannels)
        .field("hbm.banksPerChannel", m.banksPerChannel)
        .field("hbm.rowBytes", m.rowBytes)
        .field("hbm.txBytes", m.txBytes)
        .field("hbm.tBurst", m.tBurst)
        .field("hbm.tCl", m.tCl)
        .field("hbm.tRcd", m.tRcd)
        .field("hbm.tRp", m.tRp)
        .field("hbm.tCcd", m.tCcd)
        .field("hbm.tRrd", m.tRrd)
        .field("hbm.tRefi", m.tRefi)
        .field("hbm.tRfcPerBank", m.tRfcPerBank)
        .field("hbm.queueDepth", m.queueDepth)
        .field("hbm.frfcfsWindow", m.frfcfsWindow);
}

} // namespace

std::string
configHash(const core::GdsConfig &cfg)
{
    FieldHasher h;
    h.field("model", "graphdyns")
        .field("numDispatchers", cfg.numDispatchers)
        .field("numPes", cfg.numPes)
        .field("nSimt", cfg.nSimt)
        .field("numUes", cfg.numUes)
        .field("eThreshold", cfg.eThreshold)
        .field("eListSize", cfg.eListSize)
        .field("vListSize", cfg.vListSize)
        .field("vbBytesPerUe", cfg.vbBytesPerUe)
        .field("rbGroupSize", cfg.rbGroupSize)
        .field("ueQueueDepth", cfg.ueQueueDepth)
        .field("peQueueEdges", cfg.peQueueEdges)
        .field("vpbRecords", cfg.vpbRecords)
        .field("applyListQueue", cfg.applyListQueue)
        .field("auBatchRecords", cfg.auBatchRecords)
        .field("vbLatency", cfg.vbLatency)
        .field("vprefBatch", cfg.vprefBatch)
        .field("vprefMaxInflight", cfg.vprefMaxInflight)
        .field("eprefMaxInflight", cfg.eprefMaxInflight)
        .field("eprefBufferEdges", cfg.eprefBufferEdges)
        .field("applyMaxInflightGroups", cfg.applyMaxInflightGroups)
        .field("workloadBalance", cfg.workloadBalance)
        .field("exactPrefetch", cfg.exactPrefetch)
        .field("zeroStallAtomics", cfg.zeroStallAtomics)
        .field("updateScheduling", cfg.updateScheduling)
        .field("maxIterations", cfg.maxIterations);
    hashHbm(h, cfg.hbm);
    return h.hex();
}

std::string
configHash(const baseline::GraphicionadoConfig &cfg)
{
    FieldHasher h;
    h.field("model", "graphicionado")
        .field("numStreams", cfg.numStreams)
        .field("onChipBytes", cfg.onChipBytes)
        .field("atomicPipelineDepth", cfg.atomicPipelineDepth)
        .field("vprefBatch", cfg.vprefBatch)
        .field("vprefMaxInflight", cfg.vprefMaxInflight)
        .field("streamLookahead", cfg.streamLookahead)
        .field("streamQueueRecords", cfg.streamQueueRecords)
        .field("edgeMaxInflight", cfg.edgeMaxInflight)
        .field("applyMaxInflight", cfg.applyMaxInflight)
        .field("maxIterations", cfg.maxIterations);
    hashHbm(h, cfg.hbm);
    return h.hex();
}

std::string
configHash(const baseline::GunrockConfig &cfg)
{
    FieldHasher h;
    h.field("model", "gunrock")
        .field("clockGhz", cfg.clockGhz)
        .field("numCores", cfg.numCores)
        .field("warpSize", cfg.warpSize)
        .field("memBandwidthGBs", cfg.memBandwidthGBs)
        .field("cachelineBytes", cfg.cachelineBytes)
        .field("cyclesPerEdge", cfg.cyclesPerEdge)
        .field("cyclesPerApply", cfg.cyclesPerApply)
        .field("atomicSerializeNs", cfg.atomicSerializeNs)
        .field("vertexPropHitRate", cfg.vertexPropHitRate)
        .field("kernelLaunchUs", cfg.kernelLaunchUs)
        .field("preprocessNsPerEdge", cfg.preprocessNsPerEdge)
        .field("preprocessNsPerVertex", cfg.preprocessNsPerVertex)
        .field("idlePowerW", cfg.idlePowerW)
        .field("activePowerW", cfg.activePowerW)
        .field("maxIterations", cfg.maxIterations);
    return h.hex();
}

const char *
buildGitSha()
{
#ifdef GDS_GIT_SHA
    return GDS_GIT_SHA;
#else
    return "unknown";
#endif
}

void
Manifest::add(ManifestCell cell)
{
    const std::lock_guard<std::mutex> lock(mu);
    cells.push_back(std::move(cell));
}

std::size_t
Manifest::size() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return cells.size();
}

void
Manifest::setPoolHighWater(const DatasetPool::Usage &usage)
{
    const std::lock_guard<std::mutex> lock(mu);
    poolHighWater = usage;
}

void
Manifest::write(std::ostream &os) const
{
    const std::lock_guard<std::mutex> lock(mu);
    common::JsonWriter w(os);
    w.beginObject();
    w.key("gitSha").string(buildGitSha());
    w.key("scaleDivisor").number(graph::datasetScaleDivisor());
    w.key("datasetPoolHighWater").beginObject();
    w.key("resident").number(static_cast<double>(poolHighWater.resident));
    w.key("mappedBytes")
        .number(static_cast<double>(poolHighWater.mappedBytes));
    w.key("heapBytes").number(static_cast<double>(poolHighWater.heapBytes));
    w.endObject();
    w.key("cells").beginArray();
    for (const ManifestCell &c : cells) {
        const RunRecord &r = c.record;
        w.beginObject();
        w.key("key").string(c.key);
        w.key("system").string(r.system);
        w.key("algorithm").string(r.algorithm);
        w.key("dataset").string(r.dataset);
        w.key("seed").number(static_cast<double>(c.seed));
        w.key("configHash").string(r.configHash);
        w.key("outcome").string(r.status);
        w.key("cached").boolean(c.cached);
        w.key("simulatedSeconds").number(r.seconds);
        w.key("wallLoadSeconds").number(r.wallLoadSeconds);
        w.key("wallSimSeconds").number(r.wallSimSeconds);
        w.key("wallValidateSeconds").number(r.wallValidateSeconds);
        w.key("peakRssBytes").number(c.peakRssBytes);
        w.endObject();
    }
    w.endArray().endObject();
    os << '\n';
}

bool
Manifest::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (out)
        write(out);
    if (!out) {
        warn("cannot write manifest '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace gds::harness
