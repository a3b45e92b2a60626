// The sweep workload: design-space exploration. One compile (in
// set-up), then many ShapeSweep::run calls over a fixed grid of queue
// shapes x requests on a ring program, journaled with a checkpoint in
// every row. Every fourth op is stopped part-way through its journal
// and resumed, so restore is exercised alongside save.

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "core/program.h"
#include "sim/session.h"
#include "sim/shape_sweep.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace syscomm;

constexpr int kCells = 512;
constexpr int kWords = 24;
constexpr int kStreams = 2;
constexpr Cycle kCheckpointEvery = 40;
constexpr int kWorkers = 2;
constexpr int kRoundOps = 4;
constexpr std::size_t kStopAfterRecords = 24;

/** Ring where every cell streams kStreams messages to its successor:
 *  writes first, then reads from the predecessor. */
Program
ringProgram()
{
    Program program(kCells);
    std::vector<std::vector<MessageId>> out(kCells);
    for (int c = 0; c < kCells; ++c) {
        for (int s = 0; s < kStreams; ++s)
            out[c].push_back(program.declareMessage(
                "m" + std::to_string(c) + "_" + std::to_string(s), c,
                (c + 1) % kCells));
    }
    for (int c = 0; c < kCells; ++c) {
        const int prev = (c + kCells - 1) % kCells;
        for (int w = 0; w < kWords; ++w) {
            for (int s = 0; s < kStreams; ++s)
                program.write(c, out[c][s]);
            for (int s = 0; s < kStreams; ++s)
                program.read(c, out[prev][s]);
        }
    }
    return program;
}

std::vector<sim::ShapeSpec>
shapes()
{
    std::vector<sim::ShapeSpec> list;
    for (int queues : {2, 3})
        for (int capacity : {1, 2})
            for (int extension : {0, 2}) {
                sim::ShapeSpec shape;
                shape.name = "q" + std::to_string(queues) + "c" +
                             std::to_string(capacity) + "x" +
                             std::to_string(extension);
                shape.queuesPerLink = queues;
                shape.queueCapacity = capacity;
                shape.extensionCapacity = extension;
                list.push_back(shape);
            }
    return list;
}

std::vector<sim::RunRequest>
requests(std::uint64_t seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dULL + 5);
    std::vector<sim::RunRequest> list(4);
    list[0].policy = sim::PolicyKind::kCompatible;
    list[1].policy = sim::PolicyKind::kFcfs;
    list[2].policy = sim::PolicyKind::kRandom;
    list[3].policy = sim::PolicyKind::kRandom;
    for (sim::RunRequest& r : list)
        r.seed = 1 + rng.below(1u << 30);
    return list;
}

/** "" when the two sweeps agree row for row. */
std::string
compareRows(const sim::ShapeSweepResult& a, const sim::ShapeSweepResult& b)
{
    if (a.rows.size() != b.rows.size())
        return "row counts differ";
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        const auto& x = a.rows[i];
        const auto& y = b.rows[i];
        if (x.machineDigest != y.machineDigest ||
            x.result.status != y.result.status ||
            x.result.cycles != y.result.cycles ||
            x.result.stats.wordsDelivered != y.result.stats.wordsDelivered)
            return "row " + std::to_string(i) + " differs";
    }
    return "";
}

std::string
checkComplete(const sim::ShapeSweepResult& r)
{
    if (!r.complete)
        return "sweep incomplete";
    for (std::size_t i = 0; i < r.rows.size(); ++i) {
        if (!r.rows[i].finished || !r.rows[i].result.completed())
            return "row " + std::to_string(i) + " ended " +
                   r.rows[i].result.statusStr();
    }
    return "";
}

} // namespace

RunOutput
runSweep(const Config& config)
{
    RunOutput out;
    const std::string journal = config.workDir + "/sweep.journal";
    const Program program = ringProgram();
    const std::vector<sim::ShapeSpec> grid = shapes();
    const std::vector<sim::RunRequest> reqs = requests(config.seed);

    // Set-up: compile and section 6 labels, then one untimed sweep
    // that builds every per-shape session.
    std::shared_ptr<const sim::CompiledProgram> compiled;
    {
        OpScope scope(0, config.trace);
        {
            Span span("core.compile");
            compiled = sim::CompiledProgram::compile(
                program, Topology::ring(kCells), {}, false);
        }
        Span span("core.labeling");
        compiled->labels();
    }
    sim::ShapeSweepOptions options;
    options.numWorkers = kWorkers;
    options.journalPath = journal;
    options.checkpointEvery = kCheckpointEvery;
    sim::ShapeSweep sweep(compiled, grid, options);
    options.stopAfterJournalRecords = kStopAfterRecords;
    sim::ShapeSweep stopping(compiled, grid, options);

    std::remove(journal.c_str());
    const sim::ShapeSweepResult baseline = sweep.run(reqs);
    if (const std::string err = checkComplete(baseline); !err.empty())
        throw std::runtime_error("set-up sweep: " + err);
    if (baseline.checkpointsRestored != 0 || baseline.rowsFromJournal != 0)
        throw std::runtime_error("set-up sweep resumed a stale journal");
    const double setupS = nsToMs(nowNs() - processStartNs()) / 1e3;

    // Independent references for sampled rows: one reference-kernel
    // session and two event-kernel sessions per shape.
    sim::SessionOptions refOptions;
    refOptions.kernel = sim::KernelKind::kReference;
    std::vector<std::unique_ptr<sim::SimSession>> refs, savers, restorers;
    for (std::size_t s = 0; s < grid.size(); ++s) {
        refs.push_back(std::make_unique<sim::SimSession>(
            compiled, sweep.spec(s), refOptions));
        savers.push_back(
            std::make_unique<sim::SimSession>(compiled, sweep.spec(s)));
        restorers.push_back(
            std::make_unique<sim::SimSession>(compiled, sweep.spec(s)));
    }

    std::vector<double> opMs, tracedOpMs, cellRate;
    double cyclesPerOp = 0.0, wordsPerOp = 0.0;
    for (const auto& row : baseline.rows) {
        cyclesPerOp += static_cast<double>(row.result.cycles);
        wordsPerOp += static_cast<double>(row.result.stats.wordsDelivered);
    }
    Rng sampler(config.seed ^ 0xabcdefULL);
    std::int64_t op = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
    while (op % kRoundOps != 0 || op == 0 || nowNs() < deadline) {
        const bool traced = config.trace && (op / kRoundOps) % 2 == 0;
        OpScope scope(op + 1, traced);
        const bool stopResume = op % kRoundOps == kRoundOps - 1;
        std::string err;
        std::remove(journal.c_str());
        sim::ShapeSweepResult result;
        const std::int64_t t0 = nowNs();
        if (stopResume) {
            sim::ShapeSweepResult partial;
            {
                Span span("sim.sweep_run");
                partial = stopping.run(reqs);
            }
            {
                Span span("sim.sweep_resume");
                result = sweep.run(reqs);
            }
            if (partial.complete)
                err = "stopped sweep ran to completion";
            else if (result.rowsFromJournal + result.checkpointsRestored == 0)
                err = "resume replayed nothing from the journal";
        } else {
            Span span("sim.sweep_run");
            result = sweep.run(reqs);
        }
        const std::int64_t ns = nowNs() - t0;
        (traced ? tracedOpMs : opMs).push_back(nsToMs(ns));
        if (traced && !stopResume)
            cellRate.push_back(cyclesPerOp * kCells / (ns / 1e9));

        if (err.empty())
            err = checkComplete(result);
        if (err.empty())
            err = compareRows(result, baseline);
        if (err.empty()) {
            // One sampled row against an independent reference-kernel
            // run, and against a save/restore/resume of the event kernel.
            const std::size_t cell = sampler.below(result.rows.size());
            const auto& row = result.rows[cell];
            const sim::RunRequest& req = reqs[row.request];
            sim::RunResult ref = refs[row.shape]->run(req);
            if (ref.status != row.result.status ||
                ref.cycles != row.result.cycles ||
                refs[row.shape]->machineDigest() != row.machineDigest)
                err = "row " + std::to_string(cell) +
                      " differs from the reference kernel";
            sim::RunRequest paused = req;
            paused.pauseAt = row.result.cycles / 2;
            savers[row.shape]->run(paused);
            std::vector<std::uint8_t> bytes;
            bool saved = false, restored = false;
            {
                Span span("sim.checkpoint_save");
                saved = savers[row.shape]->saveCheckpoint(bytes);
            }
            {
                Span span("sim.checkpoint_restore");
                restored = restorers[row.shape]->restoreCheckpoint(req, bytes);
            }
            if (err.empty() && (!saved || !restored))
                err = "checkpoint save/restore refused";
            if (err.empty()) {
                sim::RunResult resumed = restorers[row.shape]->resume();
                if (resumed.cycles != row.result.cycles ||
                    restorers[row.shape]->machineDigest() != row.machineDigest)
                    err = "restored run differs from the sweep row";
            }
        }
        if (!err.empty())
            out.fail("op " + std::to_string(op) + ": " + err);
        ++out.attempted;
        out.failed += err.empty() ? 0 : 1;
        ++op;
    }
    std::remove(journal.c_str());

    double timed = 0.0;
    for (double ms : opMs)
        timed += ms;
    const double p50 = quantile(opMs, 0.5);
    out.endToEnd = {
        {"op_p5_ms", quantile(opMs, kLowQuantile), "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", selfPeakRssMb(), "MB"},
    };
    out.perLayer["op_p50_ms"] = p50;
    out.perLayer["ops_per_s"] =
        static_cast<double>(opMs.size()) / (timed / 1e3);
    const double tailP = tailPercentile(opMs.size());
    out.notes.push_back({"quantile", "op_p5_ms/op_p50_ms: p5/p50 of the "
                                     "per-op host times"});
    out.notes.push_back({"tail_percentile", std::to_string(tailP)});
    out.notes.push_back({"tail_samples", std::to_string(opMs.size())});
    out.notes.push_back({"journal_fs", fsTypeName(config.workDir)});

    if (config.trace) {
        const LayerTimes layers = layerTimes();
        auto medianPerOp = [&](const char* name) {
            auto it = layers.perOp.find(name);
            if (it == layers.perOp.end())
                return 0.0;
            std::vector<double> ms;
            for (const auto& [id, ns] : it->second)
                ms.push_back(nsToMs(ns));
            return quantile(ms, 0.5);
        };
        for (const char* name :
             {"core.compile", "core.labeling", "sim.sweep_run",
              "sim.checkpoint_save", "sim.checkpoint_restore",
              "sim.sweep_resume"})
            out.perLayer[std::string(name) + "_ms"] = medianPerOp(name);
        out.perLayer["sim.cell_cycles_per_s"] = quantile(cellRate, 0.5);
        out.perLayer["sim.cycles"] = cyclesPerOp;
        out.perLayer["sim.words_delivered"] = wordsPerOp;
        out.perLayer["op_tail_ms"] = quantile(opMs, tailP / 100.0);
        out.perLayer["trace.overhead_ms"] = quantile(tracedOpMs, 0.5) - p50;
    }
    return out;
}

} // namespace perfbench
