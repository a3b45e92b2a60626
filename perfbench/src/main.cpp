// perfbench: runs one named workload (verify, sweep or serve) against
// the syscomm library and daemon built from this tree, checks its
// outputs, and prints one JSON result line:
//
//     perfbench --workload verify --seed 3 --seconds 20 --trace 0
//             --work-dir DIR --out-dir DIR [--syscommd PATH]
//             [--commit SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics of a traced run (and writes its spans). The full
// record, stamped with commit, compiler and host, is appended to
// <out-dir>/records.jsonl.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "trace.h"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::RunOutput;

/** Every per-layer metric, in print order, with its unit. A workload
 *  that never calls a layer reports it as 0. */
const std::pair<const char*, const char*> kPerLayer[] = {
    {"text.parse_ms", "ms"},
    {"core.compile_ms", "ms"},
    {"core.labeling_ms", "ms"},
    {"core.analyze_ms", "ms"},
    {"sim.session_build_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.cell_cycles_per_s", "1/s"},
    {"sim.sweep_run_ms", "ms"},
    {"sim.checkpoint_save_ms", "ms"},
    {"sim.checkpoint_restore_ms", "ms"},
    {"sim.sweep_resume_ms", "ms"},
    {"sim.cycles", "count"},
    {"sim.words_delivered", "count"},
    {"serve.connect_ms", "ms"},
    {"serve.ping_rtt_ms", "ms"},
    {"serve.submit_ack_ms", "ms"},
    {"serve.status_rtt_ms", "ms"},
    {"serve.result_rtt_ms", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.daemon_vm_mb", "MB"},
    {"serve.daemon_threads", "count"},
    {"op_p50_ms", "ms"},
    {"ops_per_s", "1/s"},
    {"op_tail_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric>& metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               number(metrics[i].value) + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    return out + "}";
}

std::vector<Metric>
perLayerMetrics(const RunOutput& out)
{
    std::vector<Metric> metrics;
    for (const auto& [name, unit] : kPerLayer) {
        auto it = out.perLayer.find(name);
        metrics.push_back(
            {name, it == out.perLayer.end() ? 0.0 : it->second, unit});
    }
    return metrics;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload verify|sweep|serve "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--out-dir DIR [--syscommd PATH] [--commit SHA]\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Config config;
    std::string commit = "unknown";
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string arg = argv[i];
        const char* value = argv[i + 1];
        if (arg == "--workload")
            config.workload = value;
        else if (arg == "--seed")
            config.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            config.seconds = std::atof(value);
        else if (arg == "--trace")
            trace = std::atoi(value);
        else if (arg == "--work-dir")
            config.workDir = value;
        else if (arg == "--out-dir")
            config.outDir = value;
        else if (arg == "--syscommd")
            config.syscommd = value;
        else if (arg == "--commit")
            commit = value;
        else
            return usage();
    }
    if ((argc - 1) % 2 != 0 || (trace != 0 && trace != 1) ||
        config.seconds <= 0 || config.workDir.empty() ||
        config.outDir.empty())
        return usage();
    config.trace = trace == 1;

    RunOutput out;
    try {
        if (config.workload == "verify")
            out = perfbench::runVerify(config);
        else if (config.workload == "sweep")
            out = perfbench::runSweep(config);
        else if (config.workload == "serve")
            out = perfbench::runServe(config);
        else
            return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (out.attempted < 1) {
        std::fprintf(stderr, "perfbench: no operation attempted\n");
        return 1;
    }
    for (const std::string& f : out.failures)
        std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());

    const bool correct = out.globalFailure.empty();
    if (!correct)
        std::fprintf(stderr, "perfbench: run check failed: %s\n",
                     out.globalFailure.c_str());

    const std::vector<Metric> perLayer = perLayerMetrics(out);
    const std::string e2eJson = metricsJson(out.endToEnd);
    const std::string layerJson = metricsJson(perLayer);

    std::string record = "{\"workload\": \"" + config.workload +
                         "\", \"seed\": " + std::to_string(config.seed) +
                         ", \"seconds\": " + number(config.seconds) +
                         ", \"trace\": " + (config.trace ? "1" : "0") +
                         ", \"commit\": \"" + jsonEscape(commit) +
                         "\", \"compiler\": \"" + jsonEscape(__VERSION__) +
                         "\", \"nproc\": " +
                         std::to_string(std::thread::hardware_concurrency()) +
                         ", \"correct\": " + (correct ? "true" : "false") +
                         ", \"attempted\": " + std::to_string(out.attempted) +
                         ", \"failed\": " + std::to_string(out.failed);
    for (const auto& [key, value] : out.notes)
        record += ", \"" + key + "\": \"" + jsonEscape(value) + "\"";
    record += ", \"end_to_end\": " + e2eJson;
    if (config.trace)
        record += ", \"per_layer\": " + layerJson;
    record += "}";

    const std::string recordPath = config.outDir + "/records.jsonl";
    if (std::FILE* f = std::fopen(recordPath.c_str(), "a")) {
        std::fprintf(f, "%s\n", record.c_str());
        std::fclose(f);
    }
    if (config.trace) {
        const std::string spanPath = config.outDir + "/spans-" +
                                     config.workload + "-" +
                                     std::to_string(config.seed) + ".jsonl";
        if (!perfbench::writeSpans(spanPath))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         spanPath.c_str());
    }

    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<long long>(out.attempted),
                static_cast<long long>(out.failed),
                config.trace ? layerJson.c_str() : e2eJson.c_str());
    return 0;
}
