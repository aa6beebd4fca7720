/**
 * @file
 * Tests for the telemetry subsystem: the Perfetto tracer (golden JSON
 * structure, event nesting, endAllOpen recovery, valid-JSON output), the
 * interval sampler (deterministic sample counts, sealed columns), the
 * columnar time series, run provenance (config hashing, manifest JSON),
 * the wall-clock timer, and an end-to-end BFS run proving the emitted
 * trace is well-nested and loadable while sampling stays byte-identical
 * across repeated runs.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "algo/vcpm.hh"
#include "common/error.hh"
#include "common/jsonio.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "harness/manifest.hh"
#include "harness/walltime.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "stats/json.hh"
#include "stats/timeseries.hh"

namespace gds
{
namespace
{

/** Empty when @p text parses as one JSON value, else the parse error. */
std::string
jsonError(const std::string &text)
{
    const auto parsed = common::parseJson(text);
    return parsed.ok() ? std::string() : parsed.status().message();
}

// --- Tracer --------------------------------------------------------------

TEST(Tracer, TracksAreDeduplicatedByName)
{
    obs::Tracer t;
    const obs::TrackId pe = t.track("accel.pe");
    const obs::TrackId ue = t.track("accel.ue");
    EXPECT_NE(pe, ue);
    EXPECT_EQ(t.track("accel.pe"), pe);
    EXPECT_EQ(t.trackCount(), 2u);
    EXPECT_EQ(t.trackName(ue), "accel.ue");
}

TEST(Tracer, GoldenJsonStructure)
{
    obs::Tracer t("test");
    const obs::TrackId pe = t.track("pe");
    t.begin(pe, "scatter", 5);
    t.end(pe, 9);
    std::ostringstream os;
    t.write(os);
    const std::string expected =
        "{\"traceEvents\":["
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"test\"}},\n"
        "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"pe\"}},\n"
        "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":5,\"name\":\"scatter\"},\n"
        "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":9}\n"
        "],\"displayTimeUnit\":\"ms\",\"otherData\":"
        "{\"clock\":\"1 ts = 1 simulated cycle\"}}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(Tracer, OutputIsValidJsonWithEveryEventKind)
{
    obs::Tracer t;
    const obs::TrackId id = t.track("hbm \"quoted\"\npath");
    t.begin(id, "phase", 0);
    t.instant(id, "fault:drop", 3, "channel 2");
    t.counter(id, "activity", 42.5, 4);
    t.end(id, 10);
    std::ostringstream os;
    t.write(os);
    EXPECT_EQ(jsonError(os.str()), "");
    // Counter events are keyed by (pid, name) in the UI: the series name
    // must carry the track name.
    EXPECT_NE(os.str().find("hbm \\\"quoted\\\"\\npath.activity"),
              std::string::npos);
}

TEST(Tracer, WellNestedAcceptsProperNesting)
{
    obs::Tracer t;
    const obs::TrackId a = t.track("a");
    const obs::TrackId b = t.track("b");
    t.begin(a, "outer", 0);
    t.begin(b, "other-track", 1); // interleaving across tracks is fine
    t.begin(a, "inner", 2);
    t.end(a, 5);
    t.end(b, 6);
    t.end(a, 7);
    std::string error;
    EXPECT_TRUE(t.wellNested(&error)) << error;
    EXPECT_EQ(t.openEventCount(), 0u);
}

TEST(Tracer, WellNestedRejectsUnclosedAndTimeTravel)
{
    obs::Tracer open_tracer;
    const obs::TrackId a = open_tracer.track("a");
    open_tracer.begin(a, "never-closed", 4);
    std::string error;
    EXPECT_FALSE(open_tracer.wellNested(&error));
    EXPECT_NE(error.find("never-closed"), std::string::npos);

    obs::Tracer backwards;
    const obs::TrackId b = backwards.track("b");
    backwards.begin(b, "phase", 10);
    backwards.end(b, 5); // E stamped before its B
    EXPECT_FALSE(backwards.wellNested(&error));
    EXPECT_NE(error.find("before its B"), std::string::npos);
}

TEST(Tracer, EndAllOpenRepairsAnAbortedTrace)
{
    obs::Tracer t;
    const obs::TrackId a = t.track("a");
    const obs::TrackId b = t.track("b");
    t.begin(a, "iteration:0", 0);
    t.begin(a, "scatter", 1);
    t.begin(b, "stream", 2);
    EXPECT_EQ(t.openEventCount(), 3u);
    EXPECT_FALSE(t.wellNested());
    t.endAllOpen(9);
    EXPECT_EQ(t.openEventCount(), 0u);
    std::string error;
    EXPECT_TRUE(t.wellNested(&error)) << error;
}

TEST(Tracer, ScopedActiveTracerInstallsAndRestores)
{
    EXPECT_EQ(obs::activeTracer(), nullptr);
    obs::Tracer t;
    {
        const obs::ScopedActiveTracer scope(&t);
        EXPECT_EQ(obs::activeTracer(), &t);
        {
            obs::Tracer inner;
            const obs::ScopedActiveTracer nested(&inner);
            EXPECT_EQ(obs::activeTracer(), &inner);
        }
        EXPECT_EQ(obs::activeTracer(), &t);
    }
    EXPECT_EQ(obs::activeTracer(), nullptr);
}

// --- Sampler -------------------------------------------------------------

TEST(Sampler, TickSamplesExactlyOnTheInterval)
{
    obs::Sampler s;
    s.setInterval(10);
    double probe_value = 0.0;
    s.add("x", [&] { return probe_value; });
    for (Cycle c = 0; c < 25; ++c) {
        probe_value = static_cast<double>(c);
        s.tick(c);
    }
    ASSERT_EQ(s.sampleCount(), 3u); // cycles 0, 10, 20
    EXPECT_EQ(s.series().cycleAt(0), 0u);
    EXPECT_EQ(s.series().cycleAt(2), 20u);
    EXPECT_DOUBLE_EQ(s.series().value(1, 0), 10.0);
}

TEST(Sampler, DisabledSamplerNeverSamples)
{
    obs::Sampler s;
    s.add("x", [] { return 1.0; });
    for (Cycle c = 0; c < 1000; ++c)
        s.tick(c);
    EXPECT_EQ(s.sampleCount(), 0u);
}

TEST(Sampler, ColumnSetSealsAtFirstSample)
{
    obs::Sampler s;
    s.add("x", [] { return 1.0; });
    s.sample(0);
    EXPECT_THROW(s.add("y", [] { return 2.0; }), ConfigError);
    EXPECT_THROW(s.add("x", [] { return 3.0; }), ConfigError);
}

TEST(Sampler, ScalarProbeAndCsvOutput)
{
    stats::Group mem(nullptr, "mem");
    stats::Scalar bytes(&mem, "bytes", "bytes moved");
    obs::Sampler s;
    s.setInterval(5);
    s.addScalar("mem.bytes", bytes);
    bytes += 32;
    s.tick(0);
    bytes += 32;
    s.tick(5);
    std::ostringstream os;
    s.writeCsv(os);
    EXPECT_EQ(os.str(), "cycle,mem.bytes\n0,32\n5,64\n");
}

// --- TimeSeries ----------------------------------------------------------

TEST(TimeSeries, RejectsBadColumnSetsAndRows)
{
    stats::TimeSeries ts;
    EXPECT_THROW(ts.setColumns({"a", "a"}), ConfigError);
    EXPECT_THROW(ts.setColumns({""}), ConfigError);
    ts.setColumns({"a", "b"});
    EXPECT_THROW(ts.addRow(0, {1.0}), ConfigError);
    ts.addRow(0, {1.0, 2.0});
    EXPECT_THROW(ts.setColumns({"c"}), ConfigError);
}

TEST(TimeSeries, JsonExportIsValidAndColumnar)
{
    stats::TimeSeries ts;
    ts.setColumns({"a", "b"});
    ts.addRow(0, {1.0, 2.5});
    ts.addRow(100, {3.0, 4.0});
    std::ostringstream os;
    ts.writeJson(os);
    EXPECT_EQ(jsonError(os.str()), "");
    EXPECT_NE(os.str().find("\"cycles\":[0,100]"), std::string::npos);
    EXPECT_NE(os.str().find("\"a\":[1,3]"), std::string::npos);
    EXPECT_NE(os.str().find("\"b\":[2.5,4]"), std::string::npos);
}

// --- Provenance: hashing and manifests -----------------------------------

TEST(Manifest, Fnv1aMatchesReferenceVectors)
{
    EXPECT_EQ(harness::fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(harness::fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(harness::hashHex(0xaf63dc4c8601ec8cULL),
              "af63dc4c8601ec8c");
    EXPECT_EQ(harness::hashHex(0), "0000000000000000");
}

/** Perturb every field fields() lists (+1, or flip a bool): the hash
 *  must move, and restoring the field must restore it. */
template <typename Config>
void
expectEveryFieldMovesTheHash()
{
    Config c;
    const std::string base = harness::configHash(c);
    EXPECT_EQ(base, harness::configHash(Config{}));
    EXPECT_EQ(base.size(), 16u);
    unsigned visited = 0;
    auto v = [&](const char *name, auto &field) {
        SCOPED_TRACE(name);
        ++visited;
        const auto saved = field;
        if constexpr (std::is_same_v<decltype(saved), const bool>)
            field = !field;
        else
            field += 1;
        EXPECT_NE(harness::configHash(c), base);
        field = saved;
        EXPECT_EQ(harness::configHash(c), base);
    };
    Config::fields(c, v);
    EXPECT_GT(visited, 10u);
}

TEST(Manifest, ConfigHashIsStableAndFieldSensitive)
{
    expectEveryFieldMovesTheHash<core::GdsConfig>();
    expectEveryFieldMovesTheHash<baseline::GraphicionadoConfig>();
    expectEveryFieldMovesTheHash<baseline::GunrockConfig>();
}

TEST(Manifest, ConfigHashMatchesRecordedGoldens)
{
    // Pinned: the hash keys gds_sim and harness checkpoints and the
    // manifest, so an encoding, field-name or default change that moves
    // these must be deliberate.
    EXPECT_EQ(harness::configHash(core::GdsConfig{}), "82a235a13d59c578");
    EXPECT_EQ(harness::configHash(harness::applyVariant(
                  core::GdsConfig{}, harness::GdsVariant::Wb)),
              "24a63fd470e9b373");
    EXPECT_EQ(harness::configHash(baseline::GraphicionadoConfig{}),
              "de257a2a2c5c1b65");
    EXPECT_EQ(harness::configHash(baseline::GunrockConfig{}),
              "f9c594592b00be93");
}

TEST(Manifest, ConfigHashSeesEveryDigitOfAFloatingPointKnob)
{
    // Six significant digits would print both launch latencies as "4".
    baseline::GunrockConfig nudged;
    nudged.kernelLaunchUs = 4.0000001;
    EXPECT_NE(harness::configHash(nudged),
              harness::configHash(baseline::GunrockConfig{}));
}

TEST(Manifest, DifferentModelsNeverCollide)
{
    // The hash prefixes a model tag, so two default-constructed configs
    // of different systems hash apart even if their fields coincided.
    EXPECT_NE(harness::configHash(core::GdsConfig{}),
              harness::configHash(baseline::GraphicionadoConfig{}));
    EXPECT_NE(harness::configHash(baseline::GraphicionadoConfig{}),
              harness::configHash(baseline::GunrockConfig{}));
}

TEST(Manifest, WriteEmitsValidJsonWithOneEntryPerCell)
{
    harness::Manifest m;
    harness::ManifestCell cell;
    cell.key = "gds/bfs/LJ";
    cell.record.system = "GraphDynS";
    cell.record.algorithm = "BFS";
    cell.record.dataset = "LJ";
    cell.seed = 42;
    cell.record.configHash = "0123456789abcdef";
    cell.record.status = "ok";
    cell.cached = false;
    cell.record.seconds = 0.5;
    cell.record.wallSimSeconds = 1.25;
    m.add(cell);
    cell.key = "gds/bfs/OR";
    cell.cached = true;
    m.add(cell);
    EXPECT_EQ(m.size(), 2u);

    std::ostringstream os;
    m.write(os);
    const std::string json = os.str();
    EXPECT_EQ(jsonError(json), "");
    EXPECT_NE(json.find("\"gitSha\":"), std::string::npos);
    EXPECT_NE(json.find("\"scaleDivisor\":"), std::string::npos);
    EXPECT_NE(json.find("\"key\":\"gds/bfs/LJ\""), std::string::npos);
    EXPECT_NE(json.find("\"cached\":false"), std::string::npos);
    EXPECT_NE(json.find("\"cached\":true"), std::string::npos);
    EXPECT_NE(json.find("\"wallSimSeconds\":1.25"), std::string::npos);
    // The record's status and simulated time keep their manifest names.
    EXPECT_NE(json.find("\"outcome\":\"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"simulatedSeconds\":0.5"), std::string::npos);
}

// --- ScopedWallTimer -----------------------------------------------------

TEST(WallTimer, AccumulatesIntoTarget)
{
    double total = 1.0; // pre-existing time must be added to, not replaced
    {
        const harness::ScopedWallTimer timer(total);
        EXPECT_GE(timer.elapsedSeconds(), 0.0);
    }
    EXPECT_GE(total, 1.0);
    const double after_first = total;
    {
        const harness::ScopedWallTimer timer(total);
    }
    EXPECT_GE(total, after_first);
}

// --- End to end: a traced, sampled BFS run -------------------------------

/** Run BFS on a small RMAT graph with telemetry attached. */
std::pair<std::string, std::string>
tracedBfsRun()
{
    const graph::Csr g = graph::rmat(8, 16, 42, {}, false);
    core::GdsConfig cfg;
    cfg.maxIterations = 1000;
    auto algorithm = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
    core::GdsAccel accel(cfg, g, *algorithm);

    obs::Tracer tracer;
    obs::Sampler sampler;
    sampler.setInterval(100);
    core::RunOptions run;
    run.source = 0;
    run.sampler = &sampler;
    run.traceCounterInterval = 100;
    const obs::ScopedActiveTracer scope(&tracer);
    const core::RunResult r = accel.run(run);
    EXPECT_GT(r.cycles, 0u);

    std::string error;
    EXPECT_TRUE(tracer.wellNested(&error)) << error;
    EXPECT_GT(tracer.eventCount(), 0u);
    EXPECT_GT(sampler.sampleCount(), 0u);

    std::ostringstream trace_os;
    tracer.write(trace_os);
    EXPECT_EQ(jsonError(trace_os.str()), "");
    std::ostringstream csv_os;
    sampler.writeCsv(csv_os);
    return {trace_os.str(), csv_os.str()};
}

TEST(EndToEnd, TracedBfsIsWellNestedValidJsonAndDeterministic)
{
    const auto [trace_a, csv_a] = tracedBfsRun();
    // The trace records the phase structure the accelerator went through.
    EXPECT_NE(trace_a.find("\"iteration:0\""), std::string::npos);
    EXPECT_NE(trace_a.find("\"scatter\""), std::string::npos);
    EXPECT_NE(trace_a.find("\"apply\""), std::string::npos);
    // Activity counter tracks appear for the instrumented components.
    EXPECT_NE(trace_a.find(".activity\""), std::string::npos);
    // The sampler captured the registered probe columns.
    EXPECT_NE(csv_a.find("hbm.readBytes"), std::string::npos);
    EXPECT_NE(csv_a.find("frontier.records"), std::string::npos);

    // Telemetry must be deterministic: a second identical run emits
    // byte-identical output.
    const auto [trace_b, csv_b] = tracedBfsRun();
    EXPECT_EQ(trace_a, trace_b);
    EXPECT_EQ(csv_a, csv_b);
}

TEST(EndToEnd, UntracedRunStatsMatchTracedRun)
{
    // Telemetry must be observation only: cycle count and traffic are
    // identical with and without a tracer/sampler attached.
    auto run_once = [](bool telemetry) {
        const graph::Csr g = graph::rmat(8, 16, 42, {}, false);
        core::GdsConfig cfg;
        cfg.maxIterations = 1000;
        auto algorithm = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
        core::GdsAccel accel(cfg, g, *algorithm);
        core::RunOptions run;
        run.source = 0;
        obs::Tracer tracer;
        obs::Sampler sampler;
        std::optional<obs::ScopedActiveTracer> scope;
        if (telemetry) {
            sampler.setInterval(50);
            run.sampler = &sampler;
            run.traceCounterInterval = 50;
            scope.emplace(&tracer);
        }
        return accel.run(run);
    };
    const core::RunResult plain = run_once(false);
    const core::RunResult traced = run_once(true);
    EXPECT_EQ(plain.cycles, traced.cycles);
    EXPECT_EQ(plain.memoryBytes, traced.memoryBytes);
    EXPECT_EQ(plain.iterations, traced.iterations);
}

} // namespace
} // namespace gds
