#include "core/checkpoint_session.hh"

#include <optional>

#include "common/logging.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"

namespace gds::core
{

namespace
{

/** Objects outside the field visitor keep a hand-written pair. */
template <typename Ar, typename T>
void
handWritten(Ar &ar, T &obj)
{
    if constexpr (Ar::kRestoring)
        obj.restoreState(ar);
    else
        obj.saveState(ar);
}

/** Presence flag of an optional collaborator; on restore it must match
 *  this run's configuration. */
template <typename Ar>
bool
present(Ar &ar, bool here, const char *what)
{
    bool flag = here;
    ar(flag);
    gds_require(flag == here, CheckpointError,
                "checkpoint %s state does not match this run's "
                "configuration", what);
    return here;
}

} // namespace

sim::RunReport
runCheckpointed(
    const char *kind, const std::string &algo_name, const graph::Csr &g,
    const RunOptions &options, sim::Component &accel, const Cycle &clock,
    sim::FaultInjector *injector, sim::Simulator &driver,
    const std::function<sim::RunReport(const sim::RunHooks &)> &run)
{
    const CheckpointOptions &ck = options.checkpoint;
    std::optional<sim::CheckpointStore> store;
    std::string identity;
    if (!ck.dir.empty()) {
        identity = gds::detail::vformat(
            "%s|%s|V=%u|E=%llu|src=%u|%s", kind, algo_name.c_str(),
            g.numVertices(), static_cast<unsigned long long>(g.numEdges()),
            options.source, ck.identity.c_str());
        store.emplace(ck.dir, ck.basename);
    }

    // One payload order for both directions.
    const auto payload = [&](auto &ar) {
        ar(accel);
        if (present(ar, injector != nullptr, "fault-injection"))
            ar(*injector);
        if (present(ar, options.sampler != nullptr, "sampler"))
            handWritten(ar, *options.sampler);
        obs::Tracer *tracer = obs::activeTracer();
        if (present(ar, tracer != nullptr, "tracer"))
            handWritten(ar, *tracer);
        handWritten(ar, driver);
    };

    if (store && ck.resume) {
        std::string reason;
        if (const auto loaded = store->loadLatest(&reason)) {
            if (loaded->meta.stateVersion != kStateVersion ||
                loaded->meta.identity != identity) {
                warn("ignoring checkpoint %s: identity/version mismatch "
                     "(have \"%s\" v%u, want \"%s\" v%u); starting clean",
                     store->currentPath().c_str(),
                     loaded->meta.identity.c_str(),
                     loaded->meta.stateVersion, identity.c_str(),
                     kStateVersion);
            } else {
                sim::Deserializer d(loaded->payload);
                payload(d);
                d.expectEnd();
                inform("resumed from %s at cycle %llu%s",
                       (loaded->usedFallback ? store->previousPath()
                                             : store->currentPath())
                           .c_str(),
                       static_cast<unsigned long long>(loaded->meta.cycle),
                       loaded->usedFallback
                           ? " (previous checkpoint; current was invalid)"
                           : "");
            }
        } else if (!reason.empty()) {
            warn("no usable checkpoint (%s); starting clean",
                 reason.c_str());
        }
    }

    sim::RunHooks hooks;
    hooks.wallBudgetSeconds = options.wallBudgetSeconds;
    if (store) {
        hooks.checkpointInterval = ck.interval;
        hooks.writeCheckpoint = [&] {
            sim::Serializer s;
            payload(s);
            store->write({kStateVersion, identity, clock}, s);
        };
    }
    const sim::RunReport report = run(hooks);

    // A completed run leaves nothing to resume; drop its checkpoints so a
    // later run under the same base name starts clean.
    if (store && report.outcome == sim::RunOutcome::Completed)
        store->removeAll();
    return report;
}

} // namespace gds::core
