// The serve workload: the service path. The real syscommd runs as a
// child process (--workers 2 --lint warn). Two persistent client
// connections each start a submission every 8 ms, waiting for the
// previous one to finish, while a third thread opens a fresh connection
// per submission every 20 ms, so that the daemon's per-connection
// thread stacks stay far below the map-count limit. Starts are due on
// a fixed schedule, not after a think time: a run makes the same
// number of submissions however slow the host is, and so does the
// daemon's memory, since it keeps every submission it has served. One
// op is one submission, from sending submit until its
// terminal state is seen (status polled every 0.1 ms) and its result
// is fetched.
//
// Three daemon lives: an untimed one that leaves done markers on a
// spool; a restart on that spool, timed until it answers ping
// (setup_s); and the timed load on a daemon without a spool. The
// benchmark may write only inside its checkout, whose disk journaling
// made spooled submit latency swing by a fifth between runs; the
// spool's restart path stays measured in setup_s.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "serve/client.h"
#include "serve/json.h"
#include "sim/session.h"
#include "text/parser.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace syscomm;
using serve::JsonValue;
using serve::ServeClient;

constexpr const char* kSocket = "d.sock";
constexpr const char* kSpool = "spool";
/** One fresh program_version in this many submissions. */
constexpr std::int64_t kFreshEvery = 8;
/** Interval between the churn thread's fresh-connection submissions. */
constexpr std::chrono::milliseconds kChurnInterval{20};
constexpr int kPollUs = 100;
/** Interval between a persistent client's submissions. */
constexpr std::chrono::milliseconds kPersistentInterval{8};
constexpr int kStatsEvery = 32;
constexpr int kFirstLifeSubmissions = 512;

/** A served program and its in-process reference outcome. */
struct Base
{
    std::string text;
    std::string topoKind;
    int cells = 0;
    std::uint64_t seed = 1;
    std::int64_t cycles = 0;
    std::string digest;
};

std::string
ringText(int cells, int words)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (int c = 0; c < cells; ++c)
        out << "message m" << c << " " << c << " -> " << (c + 1) % cells
            << "\n";
    for (int c = 0; c < cells; ++c) {
        const int prev = (c + cells - 1) % cells;
        out << "cell " << c << " {";
        for (int w = 0; w < words; ++w)
            out << " W(m" << c << ") R(m" << prev << ")";
        out << " }\n";
    }
    return out.str();
}

std::string
pingPongText(int cells, int words)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (int c = 0; c + 1 < cells; c += 2)
        out << "message a" << c << " " << c << " -> " << c + 1
            << "\nmessage b" << c << " " << c + 1 << " -> " << c << "\n";
    for (int c = 0; c + 1 < cells; c += 2) {
        out << "cell " << c << " {";
        for (int w = 0; w < words; ++w)
            out << " W(a" << c << ") R(b" << c << ")";
        out << " }\ncell " << c + 1 << " {";
        for (int w = 0; w < words; ++w)
            out << " R(a" << c << ") W(b" << c << ")";
        out << " }\n";
    }
    return out.str();
}

MachineSpec
shapeOn(const Base& base)
{
    MachineSpec spec;
    spec.topo = base.topoKind == "ring" ? Topology::ring(base.cells)
                                        : Topology::linearArray(base.cells);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 1;
    return spec;
}

std::vector<Base>
makeBases(std::uint64_t seed)
{
    Rng rng(seed * 0x5851f42d4c957f2dULL + 11);
    std::vector<Base> bases;
    auto add = [&](std::string text, const char* kind, int cells) {
        Base b;
        b.text = std::move(text);
        b.topoKind = kind;
        b.cells = cells;
        b.seed = 1 + rng.below(1u << 20);
        bases.push_back(std::move(b));
    };
    add(ringText(8, 16), "ring", 8);
    add(ringText(16, 12), "ring", 16);
    add(ringText(24, 8), "ring", 24);
    add(pingPongText(8, 16), "linear", 8);
    add(pingPongText(16, 12), "linear", 16);
    add(pingPongText(32, 6), "linear", 32);
    add(ringText(12, 20), "ring", 12);
    // References: an in-process session on the same program and shape.
    for (Base& b : bases) {
        text::ParseResult parsed = text::parseProgram(b.text);
        if (!parsed.ok)
            throw std::runtime_error("served program: " + parsed.error);
        const MachineSpec spec = shapeOn(b);
        sim::SimSession session(parsed.program, spec);
        sim::RunRequest request;
        request.seed = b.seed;
        const sim::RunResult result = session.run(request);
        b.cycles = result.cycles;
        char buf[32];
        std::snprintf(buf, sizeof buf, "0x%016llx",
                      static_cast<unsigned long long>(session.machineDigest()));
        b.digest = buf;
        if (!result.completed())
            throw std::runtime_error("served program does not complete");
    }
    return bases;
}

JsonValue
submission(const Base& base, const std::string& version)
{
    JsonValue body = JsonValue::object();
    body.set("kind", JsonValue::str("run"));
    body.set("program", JsonValue::str(base.text));
    JsonValue topo = JsonValue::object();
    topo.set("kind", JsonValue::str(base.topoKind));
    topo.set("cells", JsonValue::integer(base.cells));
    body.set("topology", std::move(topo));
    JsonValue shape = JsonValue::object();
    shape.set("name", JsonValue::str("q2c1"));
    shape.set("queues", JsonValue::integer(2));
    shape.set("capacity", JsonValue::integer(1));
    body.set("shape", std::move(shape));
    JsonValue request = JsonValue::object();
    request.set("policy", JsonValue::str("compatible"));
    request.set("seed", JsonValue::integer(static_cast<std::int64_t>(base.seed)));
    JsonValue requests = JsonValue::array();
    requests.push(std::move(request));
    body.set("requests", std::move(requests));
    if (!version.empty())
        body.set("program_version", JsonValue::str(version));
    return body;
}

// The daemon child, visible to the signal handler so a killed
// benchmark never leaves it running.
std::atomic<pid_t> g_daemon{-1};

void
onSignal(int sig)
{
    const pid_t pid = g_daemon.load();
    if (pid > 0) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
    }
    signal(sig, SIG_DFL);
    raise(sig);
}

/** Owns one syscommd child: started in the constructor, drained and
 *  reaped in stop() or the destructor. */
class Daemon
{
  public:
    Daemon(const std::string& binary, bool spool)
    {
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int log = open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (log >= 0) {
                dup2(log, 1);
                dup2(log, 2);
            }
            if (spool)
                execl(binary.c_str(), binary.c_str(), "--socket", kSocket,
                      "--spool", kSpool, "--workers", "2", "--lint", "warn",
                      static_cast<char*>(nullptr));
            else
                execl(binary.c_str(), binary.c_str(), "--socket", kSocket,
                      "--workers", "2", "--lint", "warn",
                      static_cast<char*>(nullptr));
            _exit(127);
        }
        g_daemon = pid_;
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    pid_t pid() const { return pid_; }

    /** Poll-connect until ping answers; false if the child died or
     *  10 s passed. */
    bool waitReady(ServeClient& client)
    {
        const std::int64_t deadline = nowNs() + 10'000'000'000LL;
        while (nowNs() < deadline) {
            std::string error;
            JsonValue response;
            if (client.connectUnix(kSocket, error) &&
                client.ping(response, error) && response.getBool("ok", false))
                return true;
            client.close();
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                g_daemon = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        return false;
    }

    /** SIGTERM (drain), then SIGKILL after 10 s; always reaps. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        const std::int64_t deadline = nowNs() + 10'000'000'000LL;
        while (waitpid(pid_, nullptr, WNOHANG) != pid_) {
            if (nowNs() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, nullptr, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid_ = -1;
        g_daemon = -1;
    }

  private:
    pid_t pid_ = -1;
};

/** Field of /proc/<pid>/status in kB (or a plain count), -1 if absent. */
double
procStatus(pid_t pid, const std::string& field)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, field.size() + 1, field + ":") == 0)
            return std::stod(line.substr(field.size() + 1));
    }
    return -1.0;
}

/** Shared state of the load threads. */
struct Load
{
    std::uint64_t seed = 1;
    bool trace = false;
    const std::vector<Base>* bases = nullptr;
    std::atomic<std::int64_t> next{0};
    std::atomic<bool> stop{false};

    std::mutex mutex;
    std::vector<double> opMs, tracedOpMs;
    std::set<std::string> keys;
    std::int64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
};

/** One submission on @p client; returns "" when every check holds. */
std::string
oneOp(Load& load, ServeClient& client, std::int64_t i, double& ms)
{
    const Base& base = (*load.bases)[static_cast<std::size_t>(i) %
                                     load.bases->size()];
    const std::string version =
        i % kFreshEvery == kFreshEvery - 1
            ? "pb" + std::to_string(load.seed) + "-" + std::to_string(i)
            : "";
    const JsonValue body = submission(base, version);
    {
        std::lock_guard<std::mutex> lock(load.mutex);
        load.keys.insert(version + "\n" + base.text);
    }
    std::string id, error;
    JsonValue response;
    const std::int64_t t0 = nowNs();
    bool sent = false;
    {
        Span span("serve.submit_ack");
        sent = client.submit(body, id, response, error);
    }
    if (!sent)
        return "submit: " + error;
    if (id.empty())
        return "submit rejected: " + serve::writeJson(response);
    for (;;) {
        bool ok = false;
        {
            Span span("serve.status_rtt");
            ok = client.status(id, response, error);
        }
        if (!ok)
            return "status: " + error;
        if (response.getBool("terminal", false))
            break;
        if (kPollUs > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(kPollUs));
    }
    bool got = false;
    {
        Span span("serve.result_rtt");
        got = client.result(id, response, error);
    }
    ms = nsToMs(nowNs() - t0);
    if (!got)
        return "result: " + error;
    const JsonValue* result = response.find("result");
    if (response.getString("state", "") != "completed" || result == nullptr)
        return "state " + response.getString("state", "?");
    if (result->getInt("cycles", -1) != base.cycles ||
        result->getString("machine_digest", "") != base.digest)
        return "cycles/digest differ from the in-process run";
    return "";
}

void
record(Load& load, const std::string& err, double ms, bool traced)
{
    std::lock_guard<std::mutex> lock(load.mutex);
    ++load.attempted;
    if (!err.empty()) {
        ++load.failed;
        if (load.failures.size() < 20)
            load.failures.push_back(err);
        return;
    }
    (traced ? load.tracedOpMs : load.opMs).push_back(ms);
}

void
persistentClient(Load& load)
{
    ServeClient client;
    std::string error;
    if (!client.connectUnix(kSocket, error)) {
        record(load, "connect: " + error, 0, false);
        return;
    }
    int n = 0;
    auto due = std::chrono::steady_clock::now();
    while (!load.stop.load()) {
        const std::int64_t i = load.next.fetch_add(1);
        const bool traced = load.trace && i % 2 == 0;
        OpScope scope(i + 1, traced);
        double ms = 0;
        const std::string err = oneOp(load, client, i, ms);
        record(load, err, ms, traced);
        if (++n % kStatsEvery == 0) {
            JsonValue stats;
            client.stats(stats, error);
        }
        due += kPersistentInterval;
        std::this_thread::sleep_until(due);
    }
}

void
churnClient(Load& load)
{
    auto due = std::chrono::steady_clock::now();
    while (!load.stop.load()) {
        const std::int64_t i = load.next.fetch_add(1);
        const bool traced = load.trace && i % 2 == 0;
        OpScope scope(i + 1, traced);
        ServeClient client;
        std::string error, err;
        bool connected = false;
        {
            Span span("serve.connect");
            connected = client.connectUnix(kSocket, error);
        }
        double ms = 0;
        err = connected ? oneOp(load, client, i, ms)
                        : "connect: " + error;
        client.close();
        record(load, err, ms, traced);
        due += kChurnInterval;
        std::this_thread::sleep_until(due);
    }
}

} // namespace

RunOutput
runServe(const Config& config)
{
    RunOutput out;
    if (config.syscommd.empty())
        throw std::runtime_error("serve needs --syscommd");
    const std::string binary = std::filesystem::absolute(config.syscommd);
    if (chdir(config.workDir.c_str()) != 0)
        throw std::runtime_error("cannot enter " + config.workDir);
    signal(SIGTERM, onSignal);
    signal(SIGINT, onSignal);
    signal(SIGPIPE, SIG_IGN);
    const std::vector<Base> bases = makeBases(config.seed);

    // First, untimed life: leaves done markers on the spool.
    {
        Daemon daemon(binary, true);
        ServeClient client;
        if (!daemon.waitReady(client))
            throw std::runtime_error("syscommd did not start (daemon.log)");
        Load warm;
        warm.seed = config.seed + 1'000'000;
        warm.bases = &bases;
        for (std::int64_t i = 0; i < kFirstLifeSubmissions; ++i) {
            double ms = 0;
            const std::string err = oneOp(warm, client, i, ms);
            if (!err.empty())
                throw std::runtime_error("first daemon life: " + err);
        }
        client.close();
        daemon.stop();
    }

    // Set-up: restart on that spool until ping answers.
    double setupS = 0.0;
    {
        const std::int64_t s0 = nowNs();
        Daemon daemon(binary, true);
        ServeClient client;
        if (!daemon.waitReady(client))
            throw std::runtime_error("syscommd did not restart (daemon.log)");
        setupS = nsToMs(nowNs() - s0) / 1e3;
        client.close();
        daemon.stop();
    }
    std::error_code ec;
    std::filesystem::remove_all(kSpool, ec);

    // The timed life.
    Daemon daemon(binary, false);
    ServeClient control;
    if (!daemon.waitReady(control))
        throw std::runtime_error("syscommd did not start (daemon.log)");

    Load load;
    load.seed = config.seed;
    load.trace = config.trace;
    load.bases = &bases;
    std::vector<double> pingMs;
    const std::int64_t w0 = nowNs();
    {
        std::vector<std::thread> threads;
        threads.emplace_back(persistentClient, std::ref(load));
        threads.emplace_back(persistentClient, std::ref(load));
        threads.emplace_back(churnClient, std::ref(load));
        const std::int64_t deadline =
            w0 + static_cast<std::int64_t>(config.seconds * 1e9);
        std::int64_t pings = 0;
        while (nowNs() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            OpScope scope(-(++pings), config.trace);
            JsonValue response;
            std::string error;
            const std::int64_t p0 = nowNs();
            {
                Span span("serve.ping_rtt");
                control.ping(response, error);
            }
            pingMs.push_back(nsToMs(nowNs() - p0));
        }
        load.stop = true;
        for (std::thread& t : threads)
            t.join();
    }
    const double windowS = nsToMs(nowNs() - w0) / 1e3;

    JsonValue stats;
    std::string error;
    std::int64_t hits = -1, misses = -1;
    if (control.stats(stats, error)) {
        if (const JsonValue* cache = stats.find("cache")) {
            hits = cache->getInt("hits", -1);
            misses = cache->getInt("misses", -1);
        }
    }
    const double vmMb = procStatus(daemon.pid(), "VmSize") / 1024.0;
    const double threads = procStatus(daemon.pid(), "Threads");
    const double hwmMb = procStatus(daemon.pid(), "VmHWM") / 1024.0;
    control.close();
    daemon.stop();

    out.attempted = load.attempted;
    out.failed = load.failed;
    for (const std::string& f : load.failures)
        out.fail(f);
    if (misses != static_cast<std::int64_t>(load.keys.size()))
        out.globalFailure = "cache misses " + std::to_string(misses) +
                            " != distinct program keys sent " +
                            std::to_string(load.keys.size());

    const double p50 = quantile(load.opMs, 0.5);
    out.endToEnd = {
        {"op_p5_ms", quantile(load.opMs, kLowQuantile), "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", hwmMb, "MB"},
    };
    out.perLayer["op_p50_ms"] = p50;
    out.perLayer["ops_per_s"] = static_cast<double>(load.attempted) / windowS;
    const double tailP = tailPercentile(load.opMs.size());
    out.notes.push_back({"quantile", "op_p5_ms/op_p50_ms: p5/p50 of the "
                                     "per-submission host times"});
    out.notes.push_back({"tail_percentile", std::to_string(tailP)});
    out.notes.push_back({"tail_samples", std::to_string(load.opMs.size())});
    out.notes.push_back({"spool_fs", fsTypeName(config.workDir) +
                                         " (set-up restart only; the "
                                         "timed daemon runs unspooled)"});

    if (config.trace) {
        const LayerTimes layers = layerTimes();
        auto medianPerCall = [&](const char* name) {
            auto it = layers.perCall.find(name);
            if (it == layers.perCall.end())
                return 0.0;
            std::vector<double> ms;
            for (std::int64_t ns : it->second)
                ms.push_back(nsToMs(ns));
            return quantile(ms, 0.5);
        };
        for (const char* name :
             {"serve.connect", "serve.ping_rtt", "serve.submit_ack",
              "serve.status_rtt", "serve.result_rtt"})
            out.perLayer[std::string(name) + "_ms"] = medianPerCall(name);
        out.perLayer["serve.cache_hits"] = static_cast<double>(hits);
        out.perLayer["serve.cache_misses"] = static_cast<double>(misses);
        out.perLayer["serve.daemon_vm_mb"] = vmMb;
        out.perLayer["serve.daemon_threads"] = threads;
        out.perLayer["op_tail_ms"] = quantile(load.opMs, tailP / 100.0);
        out.perLayer["trace.overhead_ms"] =
            quantile(load.tracedOpMs, 0.5) - p50;
    }
    return out;
}

} // namespace perfbench
