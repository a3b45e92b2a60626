// The verify workload: the compiler and linter path a programmer waits
// on. One op is one pass over a fixed corpus; each program goes
// text -> parse (or a built Program) -> compile -> section 6 labels ->
// lint verdict -> one simulated run. Programs are timed round-robin,
// one sample per program per round, and a pass figure is the sum over
// programs of that program's quantile. The thread moves to the next
// CPU every few rounds (CpuRotation), so every vCPU's phase is sampled.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algos/fir.h"
#include "algos/mesh_matmul.h"
#include "common.h"
#include "core/analyze.h"
#include "sim/session.h"
#include "text/parser.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace syscomm;

/** Rounds run on one CPU before the thread moves to the next. */
constexpr std::int64_t kRotateRounds = 8;

/** Copies of examples/fig7.sysc, pingpong.sysc and relay_multihop.sysc
 *  (comments dropped), so the corpus does not drift with them. */
const char* const kFig7 = R"(cells 4
message A 1 -> 2
message B 2 -> 3
message C 0 -> 3
cell 0 { W(C) W(C) W(C) W(C) }
cell 1 { W(A) W(A) W(A) W(A) }
cell 2 { R(A) R(A) R(A) R(A) W(B) W(B) W(B) W(B) }
cell 3 { R(C) R(C) R(C) R(C) R(B) R(B) R(B) R(B) }
)";
const char* const kPingPong = R"(cells 2
message ping 0 -> 1
message pong 1 -> 0
cell 0 { W(ping) R(pong) W(ping) R(pong) W(ping) R(pong) }
cell 1 { R(ping) W(pong) R(ping) W(pong) R(ping) W(pong) }
)";
const char* const kRelay = R"(cells 3
message east 0 -> 2
message west 2 -> 0
cell 0 { W(east) W(east) R(west) R(west) }
cell 2 { W(west) W(west) R(east) R(east) }
)";

/** How two paired cells order their ops. */
enum class PairOrder
{
    kWriteThenRead, ///< x: W R, y: R W  -> certified
    kBothWriteFirst, ///< x: W R, y: W R -> needs one word of buffering
    kBothReadFirst,  ///< x: R W, y: R W -> read cycle, deadlock
};

/**
 * Text of a program over @p cells cells where each (x, y) in @p pairs
 * exchanges @p words words in both directions.
 */
std::string
pairProgramText(int cells, const std::vector<std::pair<int, int>>& pairs,
                int words, PairOrder order, const std::string& prefix)
{
    std::ostringstream out;
    out << "cells " << cells << "\n";
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        out << "message " << prefix << "a" << i << " " << pairs[i].first
            << " -> " << pairs[i].second << "\n";
        out << "message " << prefix << "b" << i << " " << pairs[i].second
            << " -> " << pairs[i].first << "\n";
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::string a = prefix + "a" + std::to_string(i);
        const std::string b = prefix + "b" + std::to_string(i);
        std::string x, y;
        for (int w = 0; w < words; ++w) {
            switch (order) {
            case PairOrder::kWriteThenRead:
                x += " W(" + a + ") R(" + b + ")";
                y += " R(" + a + ") W(" + b + ")";
                break;
            case PairOrder::kBothWriteFirst:
                x += " W(" + a + ") R(" + b + ")";
                y += " W(" + b + ") R(" + a + ")";
                break;
            case PairOrder::kBothReadFirst:
                x += " R(" + b + ") W(" + a + ")";
                y += " R(" + a + ") W(" + b + ")";
                break;
            }
        }
        out << "cell " << pairs[i].first << " {" << x << " }\n";
        out << "cell " << pairs[i].second << " {" << y << " }\n";
    }
    return out.str();
}

/** One corpus program and what its construction implies. */
struct Item
{
    std::string name;
    /** Source text; empty when the Program is built directly. */
    std::string text;
    /** Built Program (numeric programs with compute ops). */
    std::unique_ptr<Program> built;
    MachineSpec spec;
    LintVerdict verdict = LintVerdict::kCertified;
    /** Expected AnalysisReport::minUniformCapacity, when pinned. */
    std::optional<int> minCapacity;
    bool expectComplete = true;
    /** Pairs whose two cells must make up a deadlock witness. */
    std::vector<std::pair<int, int>> pairs;
    /** Numeric reference: message name -> expected received values. */
    std::vector<std::pair<std::string, std::vector<double>>> expected;

    /** Per-round host times, ms. */
    std::vector<double> untracedMs;
    std::vector<double> tracedMs;
};

MachineSpec
specOn(Topology topo)
{
    MachineSpec spec;
    spec.topo = std::move(topo);
    spec.queuesPerLink = 2;
    spec.queueCapacity = 1;
    spec.extensionCapacity = 0;
    return spec;
}

std::vector<Item>
makeCorpus(std::uint64_t seed)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    std::vector<Item> corpus;
    // Seeded message-name prefix: the text differs per seed, the cost
    // does not.
    const std::string prefix =
        std::string(1, static_cast<char>('a' + rng.below(26))) +
        std::to_string(rng.below(1000)) + "_";

    {   // Certified pairwise ping-pong on a linear array.
        const int cells = 128, words = 8;
        std::vector<std::pair<int, int>> pairs;
        for (int c = 0; c + 1 < cells; c += 2)
            pairs.push_back({c, c + 1});
        Item item;
        item.name = "pingpong-linear";
        item.text = pairProgramText(cells, pairs, words,
                                    PairOrder::kWriteThenRead, prefix);
        item.spec = specOn(Topology::linearArray(cells));
        item.verdict = LintVerdict::kCertified;
        item.minCapacity = 0;
        corpus.push_back(std::move(item));
    }
    {   // Dense ping-pong on a ring: both cells write first.
        const int cells = 128, words = 8;
        const int offset = static_cast<int>(rng.below(2));
        std::vector<std::pair<int, int>> pairs;
        for (int c = 0; c + 1 < cells; c += 2)
            pairs.push_back({(c + offset) % cells, (c + offset + 1) % cells});
        Item item;
        item.name = "dense-ring";
        item.text = pairProgramText(cells, pairs, words,
                                    PairOrder::kBothWriteFirst, prefix);
        item.spec = specOn(Topology::ring(cells));
        item.verdict = LintVerdict::kUnknown;
        item.minCapacity = 1;
        corpus.push_back(std::move(item));
    }
    {   // Read-first pairs on a mesh: a read cycle in every pair.
        const int rows = 8, cols = 8, words = 4;
        const bool horizontal = rng.below(2) == 0;
        std::vector<std::pair<int, int>> pairs;
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                if (horizontal && c % 2 == 0)
                    pairs.push_back({r * cols + c, r * cols + c + 1});
                if (!horizontal && r % 2 == 0)
                    pairs.push_back({r * cols + c, (r + 1) * cols + c});
            }
        }
        Item item;
        item.name = "readfirst-mesh";
        item.text = pairProgramText(rows * cols, pairs, words,
                                    PairOrder::kBothReadFirst, prefix);
        item.spec = specOn(Topology::mesh(rows, cols));
        item.verdict = LintVerdict::kDeadlock;
        item.minCapacity = -1;
        item.expectComplete = false;
        item.pairs = pairs;
        corpus.push_back(std::move(item));
    }
    {   // Mesh matmul with small-integer inputs (exact sums).
        algos::MatMulSpec mm;
        mm.n = 8;
        mm.k = 8;
        for (int i = 0; i < mm.n * mm.k; ++i)
            mm.a.push_back(rng.smallValue());
        for (int i = 0; i < mm.k * mm.n; ++i)
            mm.b.push_back(rng.smallValue());
        Item item;
        item.name = "matmul-mesh";
        item.built = std::make_unique<Program>(algos::makeMatMulProgram(mm));
        item.spec = specOn(Topology::mesh(mm.n, mm.n));
        item.verdict = LintVerdict::kCertified;
        for (int i = 0; i < mm.n; ++i) {
            for (int j = 0; j < mm.n; ++j) {
                double sum = 0.0;
                for (int t = 0; t < mm.k; ++t)
                    sum += mm.a[i * mm.k + t] * mm.b[t * mm.n + j];
                item.expected.push_back(
                    {"C" + std::to_string(i) + "_" + std::to_string(j),
                     {sum}});
            }
        }
        corpus.push_back(std::move(item));
    }
    {   // FIR on a linear array (host + taps cells).
        algos::FirSpec fir;
        fir.taps = 12;
        fir.outputs = 48;
        for (int t = 0; t < fir.taps; ++t)
            fir.weights.push_back(rng.smallValue());
        for (int j = 0; j < fir.outputs + fir.taps - 1; ++j)
            fir.inputs.push_back(rng.smallValue());
        Item item;
        item.name = "fir-linear";
        item.built = std::make_unique<Program>(algos::makeFirProgram(fir));
        item.spec = specOn(Topology::linearArray(fir.taps + 1));
        item.verdict = LintVerdict::kCertified;
        std::vector<double> y;
        for (int j = 0; j < fir.outputs; ++j) {
            double sum = 0.0;
            for (int t = 0; t < fir.taps; ++t)
                sum += fir.weights[t] * fir.inputs[j + t];
            y.push_back(sum);
        }
        item.expected.push_back({algos::firHostOutputMessage(), y});
        corpus.push_back(std::move(item));
    }
    struct Example
    {
        const char* name;
        const char* text;
        int cells;
        LintVerdict verdict;
    };
    for (const Example& ex :
         {Example{"example-fig7", kFig7, 4, LintVerdict::kCertified},
          Example{"example-pingpong", kPingPong, 2, LintVerdict::kCertified},
          Example{"example-relay", kRelay, 3, LintVerdict::kUnknown}}) {
        Item item;
        item.name = ex.name;
        item.text = ex.text;
        item.spec = specOn(Topology::linearArray(ex.cells));
        item.verdict = ex.verdict;
        corpus.push_back(std::move(item));
    }
    return corpus;
}

/** Everything one pipeline pass over one program produced. */
struct Pass
{
    text::ParseResult parsed;
    std::shared_ptr<const sim::CompiledProgram> compiled;
    std::shared_ptr<const AnalysisReport> report;
    std::unique_ptr<sim::SimSession> session;
    sim::RunResult result;
    std::int64_t ns = 0;
};

/** The timed pipeline. */
void
runPipeline(const Item& item, Pass& pass)
{
    const std::int64_t t0 = nowNs();
    const Program* program = item.built.get();
    if (!item.text.empty()) {
        Span span("text.parse");
        pass.parsed = text::parseProgram(item.text);
        program = &pass.parsed.program;
    }
    {
        Span span("core.compile");
        pass.compiled = sim::CompiledProgram::compile(
            *program, item.spec.topo, {}, /*precompute_labels=*/false);
    }
    {
        Span span("core.labeling");
        pass.compiled->labels();
    }
    {
        Span span("core.analyze");
        pass.report = pass.compiled->analysis(item.spec);
    }
    {
        Span span("sim.session_build");
        pass.session =
            std::make_unique<sim::SimSession>(pass.compiled, item.spec);
    }
    sim::RunRequest request;
    if (!item.expected.empty())
        request.collect = sim::Collect::kReceived;
    {
        Span span("sim.run");
        pass.result = pass.session->run(request);
    }
    pass.ns = nowNs() - t0;
}

/** The checks; returns "" when every one holds. */
std::string
check(const Item& item, const Pass& pass)
{
    if (!item.text.empty() && !pass.parsed.ok)
        return "parse: " + pass.parsed.error;
    if (!pass.compiled->valid())
        return "compile: " + pass.compiled->error();
    const Program& program = pass.compiled->program();
    const AnalysisReport& report = *pass.report;
    if (report.verdict != item.verdict)
        return std::string("verdict ") + lintVerdictName(report.verdict) +
               ", expected " + lintVerdictName(item.verdict);
    if (item.minCapacity && report.minUniformCapacity != *item.minCapacity)
        return "minUniformCapacity " +
               std::to_string(report.minUniformCapacity) + ", expected " +
               std::to_string(*item.minCapacity);

    const sim::RunResult& result = pass.result;
    if (item.expectComplete != result.completed())
        return std::string("run ended ") + result.statusStr();

    if (item.verdict == LintVerdict::kDeadlock) {
        if (result.status != sim::RunStatus::kDeadlocked)
            return std::string("deadlock verdict but run ended ") +
                   result.statusStr();
        const auto& cycle = report.witness.cycle;
        if (cycle.size() != 2)
            return "witness cycle of " + std::to_string(cycle.size()) +
                   " cells, expected one pair";
        const std::pair<int, int> got{std::min(cycle[0].cell, cycle[1].cell),
                                      std::max(cycle[0].cell, cycle[1].cell)};
        bool isPair = false;
        for (const auto& p : item.pairs)
            isPair |= std::min(p.first, p.second) == got.first &&
                      std::max(p.first, p.second) == got.second;
        if (!isPair)
            return "witness cells are not a constructed pair";
        for (const WitnessEntry& entry : cycle) {
            bool blocked = false;
            for (const sim::CellBlockInfo& info : result.deadlock.cells)
                blocked |= info.cell == entry.cell;
            if (!blocked)
                return "witness cell " + std::to_string(entry.cell) +
                       " not blocked in the run";
        }
        return "";
    }

    // Completed runs: delivered words, cycle floor, numerics.
    std::int64_t writes = 0;
    std::size_t longest = 0;
    for (CellId c = 0; c < program.numCells(); ++c) {
        const std::vector<Op>& ops = program.cellOps(c);
        longest = std::max(longest, ops.size());
        for (const Op& op : ops)
            writes += op.isWrite() ? 1 : 0;
    }
    if (result.stats.wordsDelivered != writes)
        return "wordsDelivered " + std::to_string(result.stats.wordsDelivered) +
               ", expected " + std::to_string(writes);
    if (result.cycles < static_cast<Cycle>(longest))
        return "cycles " + std::to_string(result.cycles) +
               " below the longest cell program " + std::to_string(longest);
    for (const auto& [name, values] : item.expected) {
        const auto msg = program.messageByName(name);
        if (!msg || result.received.size() <= static_cast<std::size_t>(*msg))
            return "no received values for " + name;
        const std::vector<double>& got = result.received[*msg];
        if (got.size() != values.size())
            return name + ": " + std::to_string(got.size()) + " values, expected " +
                   std::to_string(values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (got[i] != values[i])
                return name + "[" + std::to_string(i) + "] = " +
                       std::to_string(got[i]) + ", expected " +
                       std::to_string(values[i]);
        }
    }

    // Section 5 consistency of the compiled labels: every cell touches
    // messages in non-decreasing label order.
    if (item.verdict == LintVerdict::kCertified) {
        const std::vector<std::int64_t>& labels = pass.compiled->labels();
        if (labels.size() != static_cast<std::size_t>(program.numMessages()))
            return "labels cover " + std::to_string(labels.size()) +
                   " of " + std::to_string(program.numMessages()) +
                   " messages";
        for (CellId c = 0; c < program.numCells(); ++c) {
            std::int64_t last = 0;
            for (const Op& op : program.cellOps(c)) {
                if (!op.isTransfer())
                    continue;
                const std::int64_t label = labels[op.msg];
                if (label <= 0)
                    return "non-positive label on " +
                           program.message(op.msg).name;
                if (label < last)
                    return "labels decrease in cell " + std::to_string(c);
                last = label;
            }
        }
    }
    return "";
}

} // namespace

RunOutput
runVerify(const Config& config)
{
    RunOutput out;
    std::vector<Item> corpus = makeCorpus(config.seed);
    CpuRotation rotation;

    // Set-up: one untimed, checked pass (cold caches, first
    // allocations), measured from the process's start. It too moves
    // CPU program by program, so it is not all in one vCPU's phase.
    for (Item& item : corpus) {
        rotation.next();
        OpScope scope(0, false);
        Pass pass;
        runPipeline(item, pass);
        const std::string err = check(item, pass);
        if (!err.empty())
            throw std::runtime_error("set-up pass: " + item.name + ": " + err);
    }
    const double setupS = nsToMs(nowNs() - processStartNs()) / 1e3;

    // Rounds: each program once, in order. In traced mode even rounds
    // are traced and odd rounds are not, so the tracing overhead is a
    // same-process difference.
    std::vector<double> roundMs;
    std::int64_t round = 0;
    std::int64_t cellCycles = 0, runNs = 0;
    std::vector<double> cyclesPerRound, wordsPerRound;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(config.seconds * 1e9);
    while (round < 2 || nowNs() < deadline) {
        const bool traced = config.trace && round % 2 == 0;
        if (round % kRotateRounds == 0)
            rotation.next();
        OpScope scope(round + 1, traced);
        double total = 0.0;
        double cycles = 0.0, words = 0.0;
        bool ok = true;
        for (Item& item : corpus) {
            Pass pass;
            runPipeline(item, pass);
            const double ms = nsToMs(pass.ns);
            (traced ? item.tracedMs : item.untracedMs).push_back(ms);
            total += ms;
            cycles += static_cast<double>(pass.result.cycles);
            words += static_cast<double>(pass.result.stats.wordsDelivered);
            if (traced) {
                cellCycles += static_cast<std::int64_t>(pass.result.cycles) *
                              pass.compiled->program().numCells();
            }
            const std::string err = check(item, pass);
            if (!err.empty()) {
                ok = false;
                out.fail(item.name + ": " + err);
            }
        }
        if (!traced)
            roundMs.push_back(total);
        cyclesPerRound.push_back(cycles);
        wordsPerRound.push_back(words);
        ++out.attempted;
        out.failed += ok ? 0 : 1;
        ++round;
    }

    double low = 0.0, p50 = 0.0, timedMs = 0.0, tracedP50 = 0.0;
    for (const Item& item : corpus) {
        low += quantile(item.untracedMs, kLowQuantile);
        p50 += quantile(item.untracedMs, 0.50);
        for (double ms : item.untracedMs)
            timedMs += ms;
        if (config.trace)
            tracedP50 += quantile(item.tracedMs, 0.50);
    }
    const double passes = static_cast<double>(roundMs.size());
    out.endToEnd = {
        {"op_p5_ms", low, "ms"},
        {"setup_s", setupS, "s"},
        {"peak_rss_mb", selfPeakRssMb(), "MB"},
    };
    out.perLayer["op_p50_ms"] = p50;
    out.perLayer["ops_per_s"] = passes / (timedMs / 1e3);

    const double tailP = tailPercentile(roundMs.size());
    out.notes.push_back({"quantile", "op_p5_ms/op_p50_ms: sum over "
                                     "programs of each program's p5/p50"});
    out.notes.push_back({"cpu_rotation",
                         std::to_string(rotation.cpuCount()) +
                             " CPUs, next every " +
                             std::to_string(kRotateRounds) + " rounds"});
    out.notes.push_back({"tail_percentile", std::to_string(tailP)});
    out.notes.push_back({"tail_samples", std::to_string(roundMs.size())});
    out.notes.push_back({"spool_fs", "none"});
    std::string perProgram;
    for (const Item& item : corpus) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "%s%s=%.3f", perProgram.empty() ? "" : " ",
                      item.name.c_str(), quantile(item.untracedMs, 0.5));
        perProgram += buf;
    }
    out.notes.push_back({"program_p50_ms", perProgram});

    if (config.trace) {
        const LayerTimes layers = layerTimes();
        auto medianPerOp = [&](const char* name) {
            auto it = layers.perOp.find(name);
            if (it == layers.perOp.end())
                return 0.0;
            std::vector<double> ms;
            for (const auto& [op, ns] : it->second)
                ms.push_back(nsToMs(ns));
            return quantile(ms, 0.5);
        };
        for (const char* name :
             {"text.parse", "core.compile", "core.labeling", "core.analyze",
              "sim.session_build", "sim.run"})
            out.perLayer[std::string(name) + "_ms"] = medianPerOp(name);
        if (auto it = layers.perCall.find("sim.run"); it != layers.perCall.end())
            for (std::int64_t ns : it->second)
                runNs += ns;
        const double runMs = nsToMs(runNs);
        out.perLayer["sim.cell_cycles_per_s"] =
            runMs > 0 ? static_cast<double>(cellCycles) / (runMs / 1e3) : 0.0;
        out.perLayer["sim.cycles"] = quantile(cyclesPerRound, 0.5);
        out.perLayer["sim.words_delivered"] = quantile(wordsPerRound, 0.5);
        out.perLayer["op_tail_ms"] = quantile(roundMs, tailP / 100.0);
        out.perLayer["trace.overhead_ms"] = tracedP50 - p50;
    }
    return out;
}

} // namespace perfbench
