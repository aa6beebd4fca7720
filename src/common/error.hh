/**
 * @file
 * Typed error handling for the simulator.
 *
 * Three tiers, complementing the panic()/warn() macros of common/log:
 *  - panic()/gds_assert() remain reserved for genuine internal invariant
 *    violations (simulator bugs);
 *  - Status / Result<T> report recoverable conditions through return
 *    values where exceptions are awkward (validation passes, parsers);
 *  - the SimError hierarchy carries typed failures (deadlocked runs,
 *    corrupt inputs, invalid configurations) across module boundaries so
 *    the experiment harness can record a failed cell and keep going
 *    instead of aborting a whole figure regeneration.
 */

#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/log.hh"

namespace gds
{

/** Classification of every reportable failure. */
enum class ErrorCode
{
    Ok,           ///< no error
    Deadlock,     ///< nothing busy, completion predicate unsatisfied
    Livelock,     ///< components busy but no progress for many cycles
    CycleLimit,   ///< run exceeded its cycle budget
    CorruptInput, ///< malformed/truncated input data (graph file, cache)
    Config,       ///< invalid user-supplied configuration
    Internal,     ///< unexpected internal condition surfaced as an error
    Stopped,      ///< run interrupted by a graceful-stop request (signal)
    Timeout,      ///< run exceeded its wall-clock budget
    Checkpoint,   ///< checkpoint file corrupt, truncated or incompatible
    Resource,     ///< a bounded resource (admission queue, pool) is full
};

/** Stable lower-case name of an error code ("ok", "deadlock", ...). */
const char *errorCodeName(ErrorCode code);

/**
 * A cheap value-type verdict: Ok, or a code plus a human-readable message.
 * Returned by validation passes that must not throw (and that callers may
 * legitimately ignore after logging).
 */
class Status
{
  public:
    /** Default: success. */
    Status() = default;

    static Status
    failure(ErrorCode error_code, std::string msg)
    {
        gds_assert(error_code != ErrorCode::Ok,
                   "failure status needs a non-Ok code");
        return Status(error_code, std::move(msg));
    }

    bool ok() const { return _code == ErrorCode::Ok; }
    ErrorCode code() const { return _code; }
    const std::string &message() const { return _message; }

    /** "ok" or "<code>: <message>". */
    std::string toString() const;

  private:
    Status(ErrorCode error_code, std::string msg)
        : _code(error_code), _message(std::move(msg))
    {}

    ErrorCode _code = ErrorCode::Ok;
    std::string _message;
};

/**
 * A value or a failure Status. Library code that can fail without it being
 * exceptional (lookups, parsers) returns Result<T> so callers must confront
 * the failure path.
 */
template <typename T>
class Result
{
  public:
    Result(T value) : _value(std::move(value)) {}

    Result(Status failure_status) : _status(std::move(failure_status))
    {
        gds_assert(!_status.ok(), "Result failure needs a non-ok Status");
    }

    bool ok() const { return _value.has_value(); }
    explicit operator bool() const { return ok(); }

    const Status &
    status() const
    {
        static const Status ok_status;
        return _value ? ok_status : _status;
    }

    T &
    value()
    {
        gds_assert(_value.has_value(), "value() on failed Result: %s",
                   _status.toString().c_str());
        return *_value;
    }

    const T &
    value() const
    {
        gds_assert(_value.has_value(), "value() on failed Result: %s",
                   _status.toString().c_str());
        return *_value;
    }

    T
    valueOr(T fallback) const
    {
        return _value ? *_value : std::move(fallback);
    }

  private:
    std::optional<T> _value;
    Status _status;
};

// ---------------------------------------------------------------------
// Exception hierarchy.
// ---------------------------------------------------------------------

/** Base of every typed simulator failure. */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorCode error_code, const std::string &msg)
        : std::runtime_error(msg), _code(error_code)
    {}

    ErrorCode code() const { return _code; }

    Status toStatus() const { return Status::failure(_code, what()); }

  private:
    ErrorCode _code;
};

/** A run stopped with no component busy and the predicate unsatisfied. */
class DeadlockError : public SimError
{
  public:
    explicit DeadlockError(const std::string &msg)
        : SimError(ErrorCode::Deadlock, msg)
    {}
};

/** A run kept components busy but made no progress for many cycles. */
class LivelockError : public SimError
{
  public:
    explicit LivelockError(const std::string &msg)
        : SimError(ErrorCode::Livelock, msg)
    {}
};

/** A run exceeded its cycle budget. */
class CycleLimitError : public SimError
{
  public:
    explicit CycleLimitError(const std::string &msg)
        : SimError(ErrorCode::CycleLimit, msg)
    {}
};

/** Malformed or truncated input data. Carries the offending location. */
class CorruptInputError : public SimError
{
  public:
    /**
     * @param input_path file (or resource) the corruption was found in
     * @param line_number 1-based text line, or 0 for binary/unknown
     * @param msg what was wrong
     */
    CorruptInputError(std::string input_path, std::size_t line_number,
                      const std::string &msg)
        : SimError(ErrorCode::CorruptInput, describe(input_path,
                                                     line_number, msg)),
          _path(std::move(input_path)),
          _line(line_number)
    {}

    /** Corruption in in-memory data with no file to point at. */
    explicit CorruptInputError(const std::string &msg)
        : CorruptInputError("", 0, msg)
    {}

    const std::string &path() const { return _path; }

    /** 1-based line number; 0 when not applicable (binary files). */
    std::size_t line() const { return _line; }

  private:
    static std::string describe(const std::string &input_path,
                                std::size_t line_number,
                                const std::string &msg);

    std::string _path;
    std::size_t _line;
};

/** The user asked for an unsupported or inconsistent configuration. */
class ConfigError : public SimError
{
  public:
    explicit ConfigError(const std::string &msg)
        : SimError(ErrorCode::Config, msg)
    {}
};

/**
 * An unexpected internal condition surfaced as a typed error instead of a
 * panic, so a long experiment run can record the failure and continue.
 */
class InternalError : public SimError
{
  public:
    explicit InternalError(const std::string &msg)
        : SimError(ErrorCode::Internal, msg)
    {}
};

/** A run was interrupted by a graceful-stop request (SIGINT/SIGTERM). */
class StoppedError : public SimError
{
  public:
    explicit StoppedError(const std::string &msg)
        : SimError(ErrorCode::Stopped, msg)
    {}
};

/** A run exceeded its wall-clock budget and was reaped. */
class TimeoutError : public SimError
{
  public:
    explicit TimeoutError(const std::string &msg)
        : SimError(ErrorCode::Timeout, msg)
    {}
};

/** A checkpoint file is corrupt, truncated, or from an incompatible build. */
class CheckpointError : public SimError
{
  public:
    explicit CheckpointError(const std::string &msg)
        : SimError(ErrorCode::Checkpoint, msg)
    {}
};

/**
 * A bounded resource is exhausted: the request was well-formed but the
 * system cannot take it on right now (e.g. the simulation service's
 * admission queue is full). Clients are expected to back off and retry.
 */
class ResourceError : public SimError
{
  public:
    explicit ResourceError(const std::string &msg)
        : SimError(ErrorCode::Resource, msg)
    {}
};

/** Throw the SimError subclass matching @p status (which must be !ok). */
[[noreturn]] void throwStatus(const Status &status);

/**
 * Throw @p error_type (a SimError subclass taking a single message) unless
 * a user-facing precondition holds. This is the typed-error sibling of
 * gds_assert(): gds_assert flags simulator bugs and aborts, gds_require
 * flags bad user input/configuration and throws, so the experiment
 * harness can record the failed cell and keep going.
 */
#define gds_require(cond, error_type, ...)                                  \
    do {                                                                    \
        if (!(cond))                                                        \
            throw error_type(::gds::detail::vformat(__VA_ARGS__));          \
    } while (0)

} // namespace gds
