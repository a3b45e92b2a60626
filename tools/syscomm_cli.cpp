/**
 * @file
 * syscomm-cli — command-line client for syscommd.
 *
 * Speaks the line-JSON protocol (docs/protocol.md) over a Unix or TCP
 * socket and prints the daemon's response line to stdout, so shell
 * pipelines (and the CI daemon smoke job) can drive a daemon without
 * any other tooling:
 *
 *   syscomm-cli gen-ring-sweep --cells 8 --shapes 16 > sweep.json
 *   syscomm-cli --socket /tmp/sc.sock submit sweep.json
 *   syscomm-cli --socket /tmp/sc.sock wait s-000001 60000
 *   syscomm-cli --socket /tmp/sc.sock result s-000001
 *
 * gen-ring-sweep needs no daemon: it emits a ready-to-submit sweep
 * body over a ring program whose cells alternate W/R around the ring
 * — long-running, deadlock-free at any queue shape, and entirely
 * transfer ops, so sweep journals cover it bit-identically.
 *
 * Exit codes: 0 = daemon answered "ok": true; 1 = daemon answered
 * with an error/rejection; 2 = usage or transport failure; 3 = wait
 * timed out (distinct so scripts can tell "still running" from
 * "daemon unreachable").
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/analyze.h"
#include "core/machine_spec.h"
#include "serve/client.h"
#include "serve/json.h"
#include "serve/lint.h"
#include "serve/protocol.h"
#include "sim/machine.h"
#include "sim/shape_sweep.h"
#include "text/parser.h"

namespace {

using syscomm::serve::JsonValue;
using syscomm::serve::ServeClient;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: syscomm-cli [--socket PATH | --tcp HOST:PORT] COMMAND\n"
        "commands:\n"
        "  ping | stats | drain\n"
        "  submit [FILE] [--retry N] [--idempotency-key KEY]\n"
        "                       submit body from FILE (default stdin);\n"
        "                       --retry resends with backoff across\n"
        "                       daemon restarts (KEY makes it safe)\n"
        "  status ID\n"
        "  result ID\n"
        "  cancel ID\n"
        "  wait ID [TIMEOUT_MS] [--timeout MS] [--retry N]\n"
        "                       poll until terminal (default 60000);\n"
        "                       exit 3 = timed out, 2 = unreachable\n"
        "  gen-ring-sweep [--cells N] [--words W] [--streams S]\n"
        "                 [--shapes K] [--seeds R] [--checkpoint-every C]\n"
        "                 [--budget B] [--kernel event|reference]\n"
        "                 [--sweep-workers N]\n"
        "                 print a sweep submit body (no daemon needed)\n"
        "  sweep-merge [--require-complete] FILE...\n"
        "                 merge shard sweep journals into one summary\n"
        "                 with per-rung digest cross-checks (no daemon\n"
        "                 needed); exit 1 on any cross-check failure,\n"
        "                 or on an incomplete grid with\n"
        "                 --require-complete\n"
        "  lint [FILE] [--topology linear|ring|mesh|torus]\n"
        "       [--rows R --cols C] [--queues N] [--capacity N]\n"
        "       [--extension N]\n"
        "                 static analysis of a text program (default\n"
        "                 stdin; no daemon needed): deadlock witness,\n"
        "                 buffer bounds, Theorem 1 feasibility. Exit 0\n"
        "                 unless the verdict is deadlock/invalid\n"
        "  audit [FILE] [topology/shape flags as for lint]\n"
        "        [--policy P] [--seed N] [--max-cycles N]\n"
        "        [--kernel event|reference]\n"
        "                 run the program with the section 7\n"
        "                 compatibility audit (no daemon needed); exit\n"
        "                 0 iff the run completed rule-compatible\n");
}

bool
parseInt(const char* text, long long& out)
{
    char* end = nullptr;
    out = std::strtoll(text, &end, 10);
    return end != text && *end == '\0';
}

/**
 * The CI workload: a ring of @p cells cells, @p streams messages from
 * every cell to its clockwise neighbor, each @p words long, with
 * writes and reads interleaved word by word so every queue drains as
 * it fills — the sweep runs long (cycles scale with words) without
 * deadlocking on any shape.
 */
std::string
ringProgramText(int cells, int words, int streams)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (int c = 0; c < cells; ++c) {
        for (int s = 0; s < streams; ++s) {
            out << "message m" << c << "_" << s << " " << c << " -> "
                << (c + 1) % cells << "\n";
        }
    }
    for (int c = 0; c < cells; ++c) {
        const int prev = (c + cells - 1) % cells;
        out << "cell " << c << " {";
        for (int w = 0; w < words; ++w) {
            for (int s = 0; s < streams; ++s)
                out << " W(m" << c << "_" << s << ")";
            for (int s = 0; s < streams; ++s)
                out << " R(m" << prev << "_" << s << ")";
        }
        out << " }\n";
    }
    return out.str();
}

int
genRingSweep(int argc, char** argv, int argi)
{
    long long cells = 8, words = 400, streams = 1, shapes = 16;
    long long seeds = 1, checkpointEvery = 2000, budget = 0;
    long long sweepWorkers = 0;
    std::string kernel = "event";
    for (int i = argi; i < argc; i += 2) {
        const std::string arg = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        long long n = 0;
        const bool num = value != nullptr && parseInt(value, n);
        if (arg == "--cells" && num)
            cells = n;
        else if (arg == "--words" && num)
            words = n;
        else if (arg == "--streams" && num)
            streams = n;
        else if (arg == "--shapes" && num)
            shapes = n;
        else if (arg == "--seeds" && num)
            seeds = n;
        else if (arg == "--checkpoint-every" && num)
            checkpointEvery = n;
        else if (arg == "--budget" && num)
            budget = n;
        else if (arg == "--sweep-workers" && num)
            sweepWorkers = n;
        else if (arg == "--kernel" && value != nullptr)
            kernel = value;
        else {
            usage();
            return 2;
        }
    }
    if (cells < 3 || words < 1 || streams < 1 || shapes < 1 ||
        seeds < 1) {
        std::fprintf(stderr, "gen-ring-sweep: bad parameters\n");
        return 2;
    }

    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("sweep"));
    body.set("program", JsonValue::str(ringProgramText(
                            int(cells), int(words), int(streams))));
    JsonValue topo = JsonValue::object();
    topo.set("kind", JsonValue::str("ring"));
    topo.set("cells", JsonValue::integer(cells));
    body.set("topology", std::move(topo));

    // A deterministic ladder over queue count, capacity and the
    // iWarp-style extension: the dimensions the paper sweeps.
    JsonValue shapeList = JsonValue::array();
    for (long long k = 0; k < shapes; ++k) {
        JsonValue shape = JsonValue::object();
        const long long queues = 1 + k % 4;
        const long long capacity = 1 + (k / 4) % 4;
        const long long extension = (k % 2 == 1) ? 2 : 0;
        shape.set("name", JsonValue::str(
                              "q" + std::to_string(queues) + "c" +
                              std::to_string(capacity) +
                              (extension > 0 ? "x" : "")));
        shape.set("queues", JsonValue::integer(queues));
        shape.set("capacity", JsonValue::integer(capacity));
        shape.set("extension", JsonValue::integer(extension));
        shape.set("penalty", JsonValue::integer(4));
        shapeList.push(std::move(shape));
    }
    body.set("shapes", std::move(shapeList));

    JsonValue requests = JsonValue::array();
    for (long long r = 0; r < seeds; ++r) {
        JsonValue request = JsonValue::object();
        request.set("policy", JsonValue::str("compatible"));
        request.set("seed", JsonValue::integer(1 + r));
        requests.push(std::move(request));
    }
    body.set("requests", std::move(requests));
    body.set("checkpoint_every", JsonValue::integer(checkpointEvery));
    if (budget > 0)
        body.set("cycle_budget", JsonValue::integer(budget));
    if (sweepWorkers > 0)
        body.set("sweep_workers", JsonValue::integer(sweepWorkers));
    body.set("kernel", JsonValue::str(kernel));

    std::printf("%s\n", syscomm::serve::writeJson(body).c_str());
    return 0;
}

/**
 * Merge N shard sweep journals into one summary line. This is the
 * reduce side of a multi-process sweep: run each shard with its own
 * --spool / journal (ShapeSweepOptions::shardBegin/shardEnd), then
 * merge the journal files here. mergeSweepJournals does the real
 * work — config-digest agreement, duplicate-row cross-checks, grid
 * completeness — so a disagreement between shards (a determinism
 * violation) is a hard exit 1, never a silently merged lie.
 */
int
sweepMerge(int argc, char** argv, int argi)
{
    bool requireComplete = false;
    std::vector<std::string> paths;
    for (int i = argi; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--require-complete")
            requireComplete = true;
        else if (arg.rfind("--", 0) == 0) {
            usage();
            return 2;
        } else
            paths.push_back(arg);
    }
    if (paths.empty()) {
        usage();
        return 2;
    }

    syscomm::sim::SweepMergeResult merged;
    std::string error;
    if (!syscomm::sim::mergeSweepJournals(paths, merged, error)) {
        JsonValue out = JsonValue::object();
        out.set("ok", JsonValue::boolean(false));
        out.set("error", JsonValue::str(error));
        std::printf("%s\n", syscomm::serve::writeJson(out).c_str());
        return 1;
    }

    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(true));
    out.set("config_digest",
            JsonValue::str(syscomm::serve::hexDigest(
                merged.configDigest)));
    out.set("journals", JsonValue::integer(
                            static_cast<std::int64_t>(paths.size())));
    out.set("shapes", JsonValue::integer(static_cast<std::int64_t>(
                          merged.numShapes)));
    out.set("requests", JsonValue::integer(static_cast<std::int64_t>(
                            merged.numRequests)));
    out.set("rows", JsonValue::integer(static_cast<std::int64_t>(
                        merged.rows.size())));
    out.set("duplicate_rows",
            JsonValue::integer(static_cast<std::int64_t>(
                merged.duplicateRows)));
    out.set("complete", JsonValue::boolean(merged.complete));

    int statusCounts[syscomm::sim::kNumRunStatuses] = {};
    for (const syscomm::sim::SweepMergeRow& row : merged.rows)
        ++statusCounts[static_cast<int>(row.result.status)];
    JsonValue counts = JsonValue::object();
    for (int i = 0; i < syscomm::sim::kNumRunStatuses; ++i) {
        if (statusCounts[i] > 0)
            counts.set(syscomm::sim::runStatusName(
                           static_cast<syscomm::sim::RunStatus>(i)),
                       JsonValue::integer(statusCounts[i]));
    }
    out.set("status_counts", std::move(counts));

    // The per-rung cross-check material: one digest fold per shape,
    // equal to the same fold over an unsharded run iff the sharded
    // sweep is bit-identical to it.
    JsonValue shapeDigests = JsonValue::array();
    for (std::uint64_t digest : merged.shapeDigests)
        shapeDigests.push(
            JsonValue::str(syscomm::serve::hexDigest(digest)));
    out.set("shape_digests", std::move(shapeDigests));

    std::printf("%s\n", syscomm::serve::writeJson(out).c_str());
    if (requireComplete && !merged.complete) {
        std::fprintf(stderr,
                     "sweep-merge: merged grid is incomplete\n");
        return 1;
    }
    return 0;
}

/**
 * Shared flag set of the offline lint/audit commands: a program file
 * (default stdin), the topology to route it over, and the queue
 * shape. Audit adds run knobs on top.
 */
struct OfflineArgs
{
    std::string file;
    std::string topoKind = "linear";
    long long rows = 0;
    long long cols = 0;
    long long queues = 2;
    long long capacity = 1;
    long long extension = 0;
    long long penalty = 4;
    std::string policy = "compatible";
    std::string kernel = "event";
    long long seed = 1;
    long long maxCycles = 1'000'000;
};

bool
parseOfflineArgs(int argc, char** argv, int argi, bool simFlags,
                 OfflineArgs& out)
{
    while (argi < argc) {
        const std::string arg = argv[argi];
        const char* value = argi + 1 < argc ? argv[argi + 1] : nullptr;
        long long n = 0;
        const bool num = value != nullptr && parseInt(value, n);
        if (arg == "--topology" && value != nullptr) {
            out.topoKind = value;
            argi += 2;
        } else if (arg == "--rows" && num) {
            out.rows = n;
            argi += 2;
        } else if (arg == "--cols" && num) {
            out.cols = n;
            argi += 2;
        } else if (arg == "--queues" && num) {
            out.queues = n;
            argi += 2;
        } else if (arg == "--capacity" && num) {
            out.capacity = n;
            argi += 2;
        } else if (arg == "--extension" && num) {
            out.extension = n;
            argi += 2;
        } else if (simFlags && arg == "--penalty" && num) {
            out.penalty = n;
            argi += 2;
        } else if (simFlags && arg == "--policy" && value != nullptr) {
            out.policy = value;
            argi += 2;
        } else if (simFlags && arg == "--kernel" && value != nullptr) {
            out.kernel = value;
            argi += 2;
        } else if (simFlags && arg == "--seed" && num) {
            out.seed = n;
            argi += 2;
        } else if (simFlags && arg == "--max-cycles" && num) {
            out.maxCycles = n;
            argi += 2;
        } else if (out.file.empty() && arg.rfind("--", 0) != 0) {
            out.file = arg;
            ++argi;
        } else {
            return false;
        }
    }
    return out.queues >= 1 && out.capacity >= 1 &&
           out.extension >= 0 && out.penalty >= 0 &&
           out.seed >= 0 && out.maxCycles >= 1;
}

/** Read the program source from @p file, or stdin when empty. */
bool
readProgramText(const std::string& file, std::string& text)
{
    if (file.empty()) {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        text = ss.str();
        return true;
    }
    std::ifstream in(file);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
    return true;
}

bool
buildOfflineTopology(const OfflineArgs& args, int cells,
                     syscomm::Topology& topo, std::string& error)
{
    using syscomm::Topology;
    if (args.topoKind == "linear") {
        topo = Topology::linearArray(cells);
        return true;
    }
    if (args.topoKind == "ring") {
        if (cells < 3) {
            error = "ring topology needs >= 3 cells";
            return false;
        }
        topo = Topology::ring(cells);
        return true;
    }
    if (args.topoKind == "mesh" || args.topoKind == "torus") {
        if (args.rows < 1 || args.cols < 1 ||
            args.rows * args.cols != cells) {
            error = "--rows x --cols must equal the program's "
                    "cell count";
            return false;
        }
        if (args.topoKind == "torus" &&
            (args.rows < 3 || args.cols < 3)) {
            error = "torus topology needs --rows/--cols >= 3";
            return false;
        }
        topo = args.topoKind == "torus"
                   ? Topology::torus(int(args.rows), int(args.cols))
                   : Topology::mesh(int(args.rows), int(args.cols));
        return true;
    }
    error = "unknown --topology '" + args.topoKind + "'";
    return false;
}

/**
 * Offline static analysis: parse a text program, compile it for the
 * requested topology, and print the full core/analyze.h report as
 * JSON — the same body the daemon's lint verb returns, minus the
 * compile-cache bookkeeping. Exit 0 when the program is at least
 * plausibly runnable (certified or unknown); 1 when it is invalid or
 * carries a deadlock witness, so CI can gate on examples staying
 * clean.
 */
int
lintCommand(int argc, char** argv, int argi)
{
    OfflineArgs args;
    if (!parseOfflineArgs(argc, argv, argi, false, args)) {
        usage();
        return 2;
    }
    std::string text;
    if (!readProgramText(args.file, text)) {
        std::fprintf(stderr, "syscomm-cli: cannot read %s\n",
                     args.file.c_str());
        return 2;
    }
    const syscomm::text::ParseResult parsed =
        syscomm::text::parseProgram(text);
    if (!parsed.ok) {
        JsonValue out = JsonValue::object();
        out.set("ok", JsonValue::boolean(false));
        out.set("error",
                JsonValue::str("parse: " + parsed.error));
        std::printf("%s\n",
                    syscomm::serve::writeJson(out).c_str());
        return 1;
    }
    syscomm::Topology topo;
    std::string error;
    if (!buildOfflineTopology(args, parsed.program.numCells(), topo,
                              error)) {
        std::fprintf(stderr, "syscomm-cli: %s\n", error.c_str());
        return 2;
    }

    syscomm::AnalyzeOptions options;
    options.queuesPerLink = static_cast<int>(args.queues);
    options.queueCapacity = static_cast<int>(args.capacity);
    options.extensionCapacity = static_cast<int>(args.extension);
    const syscomm::sim::CompiledProgram compiled(parsed.program,
                                                 std::move(topo));
    const syscomm::AnalysisReport report =
        syscomm::analyzeProgram(compiled, options);

    const bool ok =
        report.verdict != syscomm::LintVerdict::kDeadlock &&
        report.verdict != syscomm::LintVerdict::kInvalid;
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(ok));
    out.set("lint", syscomm::serve::lintReportJson(report,
                                                   parsed.program));
    std::printf("%s\n", syscomm::serve::writeJson(out).c_str());
    return ok ? 0 : 1;
}

/**
 * Offline run + section 7 compatibility audit (sim/audit.h): execute
 * the program once with the assignment trace recorded and check every
 * queue grant against the ordered/simultaneous label rules. The lint
 * verdict is the static prediction; this is the dynamic half of the
 * same story, exposed so a shell loop can cross-validate the two.
 */
int
auditCommand(int argc, char** argv, int argi)
{
    OfflineArgs args;
    if (!parseOfflineArgs(argc, argv, argi, true, args)) {
        usage();
        return 2;
    }
    std::string text;
    if (!readProgramText(args.file, text)) {
        std::fprintf(stderr, "syscomm-cli: cannot read %s\n",
                     args.file.c_str());
        return 2;
    }
    const syscomm::text::ParseResult parsed =
        syscomm::text::parseProgram(text);
    if (!parsed.ok) {
        std::fprintf(stderr, "syscomm-cli: parse: %s\n",
                     parsed.error.c_str());
        return 1;
    }
    syscomm::Topology topo;
    std::string error;
    if (!buildOfflineTopology(args, parsed.program.numCells(), topo,
                              error)) {
        std::fprintf(stderr, "syscomm-cli: %s\n", error.c_str());
        return 2;
    }

    syscomm::sim::SimOptions options;
    options.audit = true;
    options.seed = static_cast<std::uint64_t>(args.seed);
    options.maxCycles = args.maxCycles;
    bool known = false;
    for (int i = 0; i < syscomm::sim::kNumPolicyKinds; ++i) {
        const auto kind = static_cast<syscomm::sim::PolicyKind>(i);
        if (args.policy == syscomm::sim::policyKindName(kind)) {
            options.policy = kind;
            known = true;
            break;
        }
    }
    if (!known) {
        std::fprintf(stderr, "syscomm-cli: unknown --policy '%s'\n",
                     args.policy.c_str());
        return 2;
    }
    if (args.kernel == "event") {
        options.kernel = syscomm::sim::KernelKind::kEventDriven;
    } else if (args.kernel == "reference") {
        options.kernel = syscomm::sim::KernelKind::kReference;
    } else {
        std::fprintf(stderr, "syscomm-cli: unknown --kernel '%s'\n",
                     args.kernel.c_str());
        return 2;
    }

    syscomm::MachineSpec spec;
    spec.topo = syscomm::SharedTopology(std::move(topo));
    spec.queuesPerLink = static_cast<int>(args.queues);
    spec.queueCapacity = static_cast<int>(args.capacity);
    spec.extensionCapacity = static_cast<int>(args.extension);
    spec.extensionPenalty = static_cast<int>(args.penalty);
    const syscomm::sim::RunResult result =
        syscomm::sim::simulateProgram(parsed.program, spec, options);

    const bool ok = result.completed() && result.audit.compatible;
    JsonValue out = JsonValue::object();
    out.set("ok", JsonValue::boolean(ok));
    out.set("status", JsonValue::str(result.statusStr()));
    out.set("cycles", JsonValue::integer(result.cycles));
    if (!result.error.empty())
        out.set("error", JsonValue::str(result.error));
    JsonValue audit = JsonValue::object();
    audit.set("compatible",
              JsonValue::boolean(result.audit.compatible));
    audit.set("violations",
              JsonValue::integer(static_cast<std::int64_t>(
                  result.audit.violations.size())));
    if (!result.audit.compatible)
        audit.set("detail",
                  JsonValue::str(result.audit.str(parsed.program)));
    out.set("audit", std::move(audit));
    JsonValue labels = JsonValue::array();
    for (std::int64_t label : result.labelsUsed)
        labels.push(JsonValue::integer(label));
    out.set("labels", std::move(labels));
    if (result.deadlock.deadlocked)
        out.set("deadlock",
                JsonValue::str(result.deadlock.render()));
    std::printf("%s\n", syscomm::serve::writeJson(out).c_str());
    return ok ? 0 : 1;
}

int
printResponse(const JsonValue& response)
{
    std::printf("%s\n", syscomm::serve::writeJson(response).c_str());
    return response.getBool("ok", false) ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socketPath;
    std::string tcpHost;
    int tcpPort = -1;
    int argi = 1;
    while (argi < argc) {
        const std::string arg = argv[argi];
        if (arg == "--socket" && argi + 1 < argc) {
            socketPath = argv[argi + 1];
            argi += 2;
        } else if (arg == "--tcp" && argi + 1 < argc) {
            const std::string spec = argv[argi + 1];
            const std::size_t colon = spec.rfind(':');
            long long port = 0;
            if (colon == std::string::npos ||
                !parseInt(spec.c_str() + colon + 1, port)) {
                std::fprintf(stderr, "--tcp expects HOST:PORT\n");
                return 2;
            }
            tcpHost = spec.substr(0, colon);
            tcpPort = static_cast<int>(port);
            argi += 2;
        } else {
            break;
        }
    }
    if (argi >= argc) {
        usage();
        return 2;
    }
    const std::string command = argv[argi++];

    if (command == "gen-ring-sweep")
        return genRingSweep(argc, argv, argi);
    if (command == "sweep-merge")
        return sweepMerge(argc, argv, argi);
    if (command == "lint")
        return lintCommand(argc, argv, argi);
    if (command == "audit")
        return auditCommand(argc, argv, argi);
    if (command == "help" || command == "--help") {
        usage();
        return 0;
    }

    ServeClient client;
    std::string error;
    bool connected = false;
    if (!socketPath.empty())
        connected = client.connectUnix(socketPath, error);
    else if (tcpPort >= 0)
        connected = client.connectTcp(tcpHost, tcpPort, error);
    else
        error = "need --socket or --tcp";
    if (!connected) {
        std::fprintf(stderr, "syscomm-cli: %s\n", error.c_str());
        return 2;
    }

    JsonValue response;
    bool ok = false;
    if (command == "ping") {
        ok = client.ping(response, error);
    } else if (command == "stats") {
        ok = client.stats(response, error);
    } else if (command == "drain") {
        ok = client.drain(response, error);
    } else if (command == "submit") {
        std::string file;
        std::string idempotencyKey;
        long long retries = 0;
        while (argi < argc) {
            const std::string arg = argv[argi];
            if (arg == "--retry" && argi + 1 < argc &&
                parseInt(argv[argi + 1], retries)) {
                argi += 2;
            } else if (arg == "--idempotency-key" &&
                       argi + 1 < argc) {
                idempotencyKey = argv[argi + 1];
                argi += 2;
            } else if (file.empty() && arg.rfind("--", 0) != 0) {
                file = arg;
                ++argi;
            } else {
                usage();
                return 2;
            }
        }
        std::string text;
        if (!file.empty()) {
            std::ifstream in(file);
            if (!in) {
                std::fprintf(stderr, "syscomm-cli: cannot read %s\n",
                             file.c_str());
                return 2;
            }
            std::ostringstream ss;
            ss << in.rdbuf();
            text = ss.str();
        } else {
            std::ostringstream ss;
            ss << std::cin.rdbuf();
            text = ss.str();
        }
        JsonValue body;
        if (!syscomm::serve::parseJson(text, body, error)) {
            std::fprintf(stderr, "syscomm-cli: submit body: %s\n",
                         error.c_str());
            return 2;
        }
        if (!idempotencyKey.empty())
            body.set("idempotency_key",
                     JsonValue::str(idempotencyKey));
        std::string id;
        if (retries > 0) {
            syscomm::serve::RetryOptions retry;
            retry.maxAttempts = static_cast<int>(retries);
            ok = client.submitWithRetry(body, retry, id, response,
                                        error);
            // submitWithRetry reports rejections through `error`;
            // a populated response still prints below for scripts.
            if (!ok && response.isObject() &&
                response.find("rejected") != nullptr) {
                printResponse(response);
                return 1;
            }
        } else {
            ok = client.submit(body, id, response, error);
        }
    } else if (command == "status" || command == "result" ||
               command == "cancel") {
        if (argi >= argc) {
            usage();
            return 2;
        }
        const std::string id = argv[argi];
        if (command == "status")
            ok = client.status(id, response, error);
        else if (command == "result")
            ok = client.result(id, response, error);
        else
            ok = client.cancel(id, response, error);
    } else if (command == "wait") {
        if (argi >= argc) {
            usage();
            return 2;
        }
        const std::string id = argv[argi++];
        long long timeoutMs = 60'000;
        long long retries = 0;
        while (argi < argc) {
            const std::string arg = argv[argi];
            if (arg == "--timeout" && argi + 1 < argc &&
                parseInt(argv[argi + 1], timeoutMs)) {
                argi += 2;
            } else if (arg == "--retry" && argi + 1 < argc &&
                       parseInt(argv[argi + 1], retries)) {
                argi += 2;
            } else if (arg.rfind("--", 0) != 0 &&
                       parseInt(arg.c_str(), timeoutMs)) {
                ++argi; // legacy positional TIMEOUT_MS
            } else {
                usage();
                return 2;
            }
        }
        bool waited;
        if (retries > 0) {
            syscomm::serve::RetryOptions retry;
            retry.maxAttempts = static_cast<int>(retries);
            waited = client.waitTerminalRetry(id, int(timeoutMs),
                                              retry, response, error);
        } else {
            waited = client.waitTerminal(id, int(timeoutMs), response,
                                         error);
        }
        if (!waited) {
            std::fprintf(stderr, "syscomm-cli: %s\n", error.c_str());
            // 3 = the daemon is fine but the work outlived the
            // deadline; transport/protocol failures stay 2.
            return error.rfind("timeout", 0) == 0 ? 3 : 2;
        }
        return printResponse(response);
    } else {
        usage();
        return 2;
    }

    if (!ok) {
        std::fprintf(stderr, "syscomm-cli: %s\n", error.c_str());
        return 2;
    }
    return printResponse(response);
}
