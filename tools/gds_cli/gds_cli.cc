/**
 * @file
 * gds_cli: command-line client for the gds_simd simulation daemon.
 * Builds one JSON-line request, sends it over the daemon's Unix-domain
 * socket and prints the JSON response line to stdout. Exit status 0 iff
 * the daemon answered {"ok":true,...} (so shell scripts can branch on
 * it without a JSON parser).
 *
 *   gds_cli [--socket PATH] submit --algo bfs --dataset FR
 *           [--system gds|graphicionado|gunrock] [--source VID]
 *           [--iters N] [--cycle-budget N] [--wall-budget SECONDS]
 *           [--progress-interval CYCLES]
 *   gds_cli [--socket PATH] poll JOB
 *   gds_cli [--socket PATH] result JOB
 *   gds_cli [--socket PATH] wait JOB [--timeout SECONDS]
 *   gds_cli [--socket PATH] watch JOB [--timeout SECONDS]
 *   gds_cli [--socket PATH] statsz
 *   gds_cli [--socket PATH] metricsz
 *   gds_cli [--socket PATH] shutdown
 *
 * wait polls the daemon until the job leaves the queue (done or failed)
 * and prints its final "result" response; --timeout (default 300 s)
 * bounds the polling.
 *
 * watch subscribes to the job's live progress stream and prints one
 * JSON event per line ({"event":"start"|"progress"|"done",...}) until
 * the terminal "done" event; exit status follows the job's final state.
 * metricsz prints the daemon's Prometheus text exposition verbatim.
 *
 * Numeric flags go through the same checked parser as gds_sim's flags
 * and the daemon's own request fields: trailing garbage, signs and
 * overflow are rejected with a message + usage, never an uncaught
 * exception.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "common/jsonio.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/socket.hh"

using namespace gds;

namespace
{

[[noreturn]] void
usage()
{
    detail::emitRawLine(
        "usage: gds_cli [--socket PATH] COMMAND ...\n"
        "  submit --algo bfs|sssp|cc|sswp|pr --dataset NAME\n"
        "         [--system gds|graphicionado|gunrock] [--source VID]\n"
        "         [--iters N] [--cycle-budget N] [--wall-budget SEC]\n"
        "         [--progress-interval CYCLES]\n"
        "  poll JOB | result JOB | wait JOB [--timeout SEC]\n"
        "  watch JOB [--timeout SEC]\n"
        "  statsz | metricsz | shutdown");
    std::exit(1);
}

/** One request/response round trip on a fresh connection. */
Result<std::string>
roundTrip(const std::string &socket_path, const std::string &request)
{
    auto chan = common::connectUnix(socket_path);
    if (!chan.ok())
        return chan.status();
    if (Status s = chan.value().writeLine(request); !s.ok())
        return s;
    std::string response;
    if (Status s = chan.value().readLine(response, 30'000); !s.ok())
        return s;
    return response;
}

/** True iff the response line says {"ok":true,...}. */
bool
responseOk(const std::string &response)
{
    auto parsed = common::parseJson(response);
    if (!parsed.ok() || !parsed.value().isObject())
        return false;
    const common::JsonValue *ok = parsed.value().find("ok");
    return ok && ok->isBool() && ok->asBool();
}

/** "state" field of a response line ("" when absent). */
std::string
responseState(const std::string &response)
{
    auto parsed = common::parseJson(response);
    if (!parsed.ok() || !parsed.value().isObject())
        return "";
    const common::JsonValue *state = parsed.value().find("state");
    return state && state->isString() ? state->asString() : "";
}

struct Cli
{
    std::string socketPath = "gds_simd.sock";
    std::string command;
    std::string job;
    // Submit fields. Only numeric shape is validated client-side; the
    // daemon re-validates names and ranges and answers with a typed
    // error line.
    std::string algo;
    std::string dataset;
    std::string system;
    std::optional<std::uint64_t> source;
    std::optional<std::uint64_t> iters;
    std::optional<std::uint64_t> cycleBudget;
    std::optional<double> wallBudget;
    std::optional<std::uint64_t> progressInterval;
    double waitTimeoutSeconds = 300.0;
};

Cli
parseArgs(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::optional<std::string> inline_value;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
            }
        }
        auto need_value = [&]() -> std::string {
            if (inline_value)
                return *inline_value;
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        auto need_u64 = [&]() {
            return common::requireU64(arg, need_value());
        };
        if (arg == "--socket")
            cli.socketPath = need_value();
        else if (arg == "--algo")
            cli.algo = need_value();
        else if (arg == "--dataset")
            cli.dataset = need_value();
        else if (arg == "--system")
            cli.system = need_value();
        else if (arg == "--source")
            cli.source = need_u64();
        else if (arg == "--iters")
            cli.iters = need_u64();
        else if (arg == "--cycle-budget")
            cli.cycleBudget = need_u64();
        else if (arg == "--wall-budget")
            cli.wallBudget = common::requireF64(arg, need_value());
        else if (arg == "--progress-interval")
            cli.progressInterval = need_u64();
        else if (arg == "--timeout")
            cli.waitTimeoutSeconds = common::requireF64(arg, need_value());
        else if (arg.rfind("--", 0) == 0)
            usage();
        else if (cli.command.empty())
            cli.command = arg;
        else if (cli.job.empty())
            cli.job = arg;
        else
            usage();
    }
    if (cli.command.empty())
        usage();
    return cli;
}

std::string
jobRequest(const std::string &op, const std::string &job)
{
    std::string req = "{\"op\":";
    req += common::jsonQuote(op);
    req += ",\"job\":";
    req += common::jsonQuote(job);
    req += '}';
    return req;
}

std::string
buildRequest(const Cli &cli)
{
    if (cli.command == "submit") {
        if (cli.algo.empty() || cli.dataset.empty())
            fatal("submit needs --algo and --dataset");
        std::string req = "{\"op\":\"submit\",\"algorithm\":";
        req += common::jsonQuote(cli.algo);
        req += ",\"dataset\":";
        req += common::jsonQuote(cli.dataset);
        if (!cli.system.empty()) {
            req += ",\"system\":";
            req += common::jsonQuote(cli.system);
        }
        if (cli.source) {
            req += ",\"source\":";
            req += std::to_string(*cli.source);
        }
        if (cli.iters) {
            req += ",\"iterations\":";
            req += std::to_string(*cli.iters);
        }
        if (cli.cycleBudget) {
            req += ",\"cycle_budget\":";
            req += std::to_string(*cli.cycleBudget);
        }
        if (cli.wallBudget) {
            req += ",\"wall_budget_seconds\":";
            req += std::to_string(*cli.wallBudget);
        }
        if (cli.progressInterval) {
            req += ",\"progress_interval\":";
            req += std::to_string(*cli.progressInterval);
        }
        req += '}';
        return req;
    }
    if (cli.command == "poll" || cli.command == "result") {
        if (cli.job.empty())
            usage();
        return jobRequest(cli.command, cli.job);
    }
    if (cli.command == "statsz")
        return "{\"op\":\"statsz\"}";
    if (cli.command == "metricsz")
        return "{\"op\":\"metricsz\"}";
    if (cli.command == "shutdown")
        return "{\"op\":\"shutdown\"}";
    usage();
}

int
runWait(const Cli &cli)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(cli.waitTimeoutSeconds);
    const std::string poll_req = jobRequest("poll", cli.job);
    for (;;) {
        auto response = roundTrip(cli.socketPath, poll_req);
        if (!response.ok())
            fatal("%s", response.status().toString().c_str());
        const std::string state = responseState(response.value());
        if (!responseOk(response.value())) {
            // Unknown job or daemon-side failure: surface it verbatim.
            std::printf("%s\n", response.value().c_str());
            return 1;
        }
        if (state == "done" || state == "failed") {
            auto final_response =
                roundTrip(cli.socketPath, jobRequest("result", cli.job));
            if (!final_response.ok())
                fatal("%s", final_response.status().toString().c_str());
            std::printf("%s\n", final_response.value().c_str());
            return responseOk(final_response.value()) ? 0 : 1;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            fatal("timed out waiting for %s", cli.job.c_str());
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
}

/** "event" field of a streamed line ("" when absent). */
std::string
eventKind(const std::string &line)
{
    auto parsed = common::parseJson(line);
    if (!parsed.ok() || !parsed.value().isObject())
        return "";
    const common::JsonValue *event = parsed.value().find("event");
    return event && event->isString() ? event->asString() : "";
}

int
runWatch(const Cli &cli)
{
    auto chan = common::connectUnix(cli.socketPath);
    if (!chan.ok())
        fatal("%s", chan.status().toString().c_str());
    if (Status s = chan.value().writeLine(jobRequest("subscribe", cli.job));
        !s.ok())
        fatal("%s", s.toString().c_str());

    // The ack line carries the job's current state; after it the daemon
    // pushes event lines until the terminal "done" event.
    std::string line;
    if (Status s = chan.value().readLine(line, 30'000); !s.ok())
        fatal("%s", s.toString().c_str());
    std::printf("%s\n", line.c_str());
    if (!responseOk(line))
        return 1;

    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double>(cli.waitTimeoutSeconds);
    for (;;) {
        const Status s = chan.value().readLine(line, 1000);
        if (s.ok()) {
            std::printf("%s\n", line.c_str());
            std::fflush(stdout);
            if (eventKind(line) == "done")
                return responseState(line) == "done" ? 0 : 1;
            continue;
        }
        if (s.code() != ErrorCode::Timeout)
            fatal("%s", s.toString().c_str());
        if (std::chrono::steady_clock::now() >= deadline)
            fatal("timed out watching %s", cli.job.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    try {
        cli = parseArgs(argc, argv);
    } catch (const ConfigError &e) {
        warn("%s", e.what());
        usage();
    }

    if (cli.command == "wait") {
        if (cli.job.empty())
            usage();
        return runWait(cli);
    }
    if (cli.command == "watch") {
        if (cli.job.empty())
            usage();
        return runWatch(cli);
    }

    const std::string request = buildRequest(cli);
    auto response = roundTrip(cli.socketPath, request);
    if (!response.ok())
        fatal("%s", response.status().toString().c_str());

    if (cli.command == "metricsz" && responseOk(response.value())) {
        // Unwrap the exposition so `gds_cli metricsz` pipes straight
        // into promtool/grep without a JSON parser.
        auto parsed = common::parseJson(response.value());
        const common::JsonValue *metrics =
            parsed.ok() && parsed.value().isObject()
                ? parsed.value().find("metrics")
                : nullptr;
        if (metrics && metrics->isString()) {
            std::fputs(metrics->asString().c_str(), stdout);
            return 0;
        }
    }

    std::printf("%s\n", response.value().c_str());
    return responseOk(response.value()) ? 0 : 1;
}
