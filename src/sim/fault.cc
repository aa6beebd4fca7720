#include "sim/fault.hh"

#include "common/debug.hh"

namespace gds::sim
{

namespace
{

bool
isProbability(double p)
{
    return p >= 0.0 && p <= 1.0;
}

} // namespace

Status
FaultPlan::validate() const
{
    if (!isProbability(delayResponseProb))
        return Status::failure(ErrorCode::Config,
                               "delayResponseProb must be in [0, 1]");
    if (!isProbability(dropResponseProb))
        return Status::failure(ErrorCode::Config,
                               "dropResponseProb must be in [0, 1]");
    if (!isProbability(rejectRequestProb))
        return Status::failure(ErrorCode::Config,
                               "rejectRequestProb must be in [0, 1]");
    if (!isProbability(stallOutputProb))
        return Status::failure(ErrorCode::Config,
                               "stallOutputProb must be in [0, 1]");
    if (delayResponseProb > 0.0 && delayCycles == 0)
        return Status::failure(ErrorCode::Config,
                               "delayCycles must be positive when "
                               "delayResponseProb is set");
    return Status();
}

FaultInjector::FaultInjector(const FaultPlan &fault_plan)
    : _plan(fault_plan), rng(fault_plan.seed)
{
    const Status valid = _plan.validate();
    if (!valid.ok())
        throw ConfigError("bad fault plan: " + valid.message());
}

bool
FaultInjector::dropResponse()
{
    ++_responsesSeen;
    const bool deterministic =
        _plan.dropAfterResponses != FaultPlan::never &&
        _responsesSeen > _plan.dropAfterResponses;
    const bool random =
        _plan.dropResponseProb > 0.0 &&
        rng.uniform() < _plan.dropResponseProb;
    if (deterministic || random) {
        ++_dropped;
        DPRINTF(Fault, "dropping HBM response #%llu",
                static_cast<unsigned long long>(_responsesSeen));
        return true;
    }
    return false;
}

Cycle
FaultInjector::responseDelay()
{
    if (_plan.delayResponseProb > 0.0 &&
        rng.uniform() < _plan.delayResponseProb) {
        ++_delayed;
        DPRINTF(Fault, "delaying HBM response by %llu cycles",
                static_cast<unsigned long long>(_plan.delayCycles));
        return _plan.delayCycles;
    }
    return 0;
}

bool
FaultInjector::rejectRequest()
{
    if (_plan.rejectRequestProb > 0.0 &&
        rng.uniform() < _plan.rejectRequestProb) {
        ++_rejected;
        return true;
    }
    return false;
}

bool
FaultInjector::stallOutput()
{
    if (_plan.stallOutputProb > 0.0 &&
        rng.uniform() < _plan.stallOutputProb) {
        ++_stalled;
        return true;
    }
    return false;
}

} // namespace gds::sim
