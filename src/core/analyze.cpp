#include "core/analyze.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/competing.h"
#include "core/crossoff.h"
#include "core/label_verify.h"
#include "core/machine_spec.h"
#include "sim/session.h"

namespace syscomm {

namespace {

Diagnostic makeDiag(Severity severity, LintRule rule, std::string text)
{
    Diagnostic d;
    d.severity = severity;
    d.rule = rule;
    d.text = std::move(text);
    return d;
}

std::string opStr(const Program& program, CellId cell, int opIndex)
{
    const auto& ops = program.cellOps(cell);
    if (opIndex < 0 || opIndex >= static_cast<int>(ops.size()))
        return "?";
    const Op& op = ops[opIndex];
    if (op.isCompute())
        return "C";
    std::string name = op.msg != kInvalidMessage &&
                               op.msg < program.numMessages()
                           ? program.message(op.msg).name
                           : "?";
    return (op.isWrite() ? "W(" : "R(") + name + ")";
}

/**
 * Pass 1 witness extraction. The wait-for graph over the stuck fronts
 * is functional (each stuck cell waits for exactly one other cell: its
 * front op's partner endpoint), so following edges from any stuck cell
 * must revisit a cell, and the revisited suffix is a simple blocked
 * cycle.
 *
 * Why the partner of a stuck front is itself stuck: a front R(m) is
 * message m's first uncrossed read, so m's next pair has its read side
 * reachable; the pair being non-executable means the sender's first
 * uncrossed W(m) is unreachable, hence the sender still has uncrossed
 * work. Symmetrically for a front W(m) and its receiver.
 */
DeadlockWitness extractWitness(const Program& program,
                               const CrossOffResult& stuck)
{
    DeadlockWitness witness;
    witness.blockedCells = static_cast<int>(stuck.stuckFronts.size());
    if (stuck.stuckFronts.empty())
        return witness;

    std::unordered_map<CellId, int> frontOf;
    frontOf.reserve(stuck.stuckFronts.size());
    for (const auto& [cell, op] : stuck.stuckFronts)
        frontOf.emplace(cell, op);

    std::vector<WitnessEntry> path;
    std::unordered_map<CellId, int> visitedAt;
    CellId cur = stuck.stuckFronts.front().first;
    while (visitedAt.find(cur) == visitedAt.end())
    {
        auto it = frontOf.find(cur);
        if (it == frontOf.end())
            break; // Unreachable by construction; degrade gracefully.
        const Op& op = program.cellOps(cur)[it->second];
        WitnessEntry entry;
        entry.cell = cur;
        entry.op = it->second;
        entry.msg = op.msg;
        entry.isWrite = op.isWrite();
        const MessageDecl& decl = program.message(op.msg);
        entry.waitsFor = entry.isWrite ? decl.receiver : decl.sender;
        visitedAt.emplace(cur, static_cast<int>(path.size()));
        path.push_back(entry);
        cur = entry.waitsFor;
    }

    auto cycleStart = visitedAt.find(cur);
    if (cycleStart != visitedAt.end())
        path.erase(path.begin(), path.begin() + cycleStart->second);
    witness.cycle = std::move(path);
    return witness;
}

/**
 * Pass 2 helper: smallest value in [1, hi] for which @p free holds,
 * or -1 when even hi fails. Deadlock-freedom is monotone in the skip
 * bound (rule R2 only ever compares a count against it), so binary
 * search applies.
 */
template <typename FreeAt>
int searchSmallest(int hi, FreeAt&& free)
{
    if (!free(hi))
        return -1;
    int lo = 1;
    while (lo < hi)
    {
        int mid = lo + (hi - lo) / 2;
        if (free(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace

const char* severityName(Severity severity)
{
    switch (severity)
    {
        case Severity::kInfo: return "info";
        case Severity::kWarning: return "warning";
        case Severity::kError: return "error";
    }
    return "?";
}

const char* lintRuleId(LintRule rule)
{
    switch (rule)
    {
        case LintRule::kInvalidProgram: return "SL001";
        case LintRule::kUnroutableMessage: return "SL002";
        case LintRule::kTopologyMismatch: return "SL003";
        case LintRule::kComputePin: return "SL004";
        case LintRule::kDeadlockWitness: return "SL010";
        case LintRule::kBufferBound: return "SL011";
        case LintRule::kNoFiniteBuffer: return "SL012";
        case LintRule::kLookaheadOnly: return "SL013";
        case LintRule::kLabelingFallback: return "SL020";
        case LintRule::kInconsistentLabels: return "SL021";
        case LintRule::kQueueInfeasible: return "SL022";
    }
    return "SL000";
}

const char* lintVerdictName(LintVerdict verdict)
{
    switch (verdict)
    {
        case LintVerdict::kCertified: return "certified";
        case LintVerdict::kDeadlock: return "deadlock";
        case LintVerdict::kUnknown: return "unknown";
        case LintVerdict::kInvalid: return "invalid";
    }
    return "?";
}

std::string Diagnostic::str(const Program& program) const
{
    std::ostringstream out;
    out << severityName(severity) << ' ' << lintRuleId(rule);
    if (cell != kInvalidCell)
        out << " cell=" << cell;
    if (op >= 0)
        out << " op=" << op;
    if (msg != kInvalidMessage && msg < program.numMessages())
        out << " msg=" << program.message(msg).name;
    if (link != kInvalidLink)
        out << " link=" << link;
    out << ": " << text;
    return out.str();
}

std::string DeadlockWitness::str(const Program& program) const
{
    std::ostringstream out;
    for (std::size_t i = 0; i < cycle.size(); ++i)
    {
        const WitnessEntry& e = cycle[i];
        if (i)
            out << "; ";
        out << "cell " << e.cell << " waits at op " << e.op << ' '
            << opStr(program, e.cell, e.op) << " for cell " << e.waitsFor;
    }
    return out.str();
}

bool AnalysisReport::hasErrors() const
{
    return std::any_of(diagnostics.begin(), diagnostics.end(),
                       [](const Diagnostic& d) {
                           return d.severity == Severity::kError;
                       });
}

std::string AnalysisReport::render(const Program& program) const
{
    std::ostringstream out;
    out << "verdict: " << lintVerdictName(verdict) << " (queues="
        << shape.queuesPerLink << " capacity=" << shape.queueCapacity
        << " extension=" << shape.extensionCapacity << ")\n";
    if (!witness.empty())
        out << "witness: " << witness.str(program) << '\n';
    for (const Diagnostic& d : diagnostics)
        out << "  " << d.str(program) << '\n';
    return out.str();
}

AnalysisReport analyzeProgram(const sim::CompiledProgram& compiled,
                              const AnalyzeOptions& options)
{
    const Program& program = compiled.program();
    AnalysisReport report;
    report.shape = options;

    // ------------------------------------------------------------------
    // Pass 4a: structural validity. Everything downstream indexes by
    // the program's cells and messages, so invalid programs stop here.
    // ------------------------------------------------------------------
    if (program.numCells() > compiled.topo().numCells())
    {
        Diagnostic d = makeDiag(
            Severity::kError, LintRule::kTopologyMismatch,
            "program declares " + std::to_string(program.numCells()) +
                " cells but the topology has only " +
                std::to_string(compiled.topo().numCells()));
        report.diagnostics.push_back(std::move(d));
        report.verdict = LintVerdict::kInvalid;
        return report;
    }

    // ------------------------------------------------------------------
    // Pass 4b: route liveness. The compile routed every message once;
    // standard topologies are connected, custom (e.g. fault-degraded)
    // ones may not be. Its validation lists one error per unroutable
    // message, and only when the program is otherwise sound.
    // ------------------------------------------------------------------
    if (!compiled.valid())
    {
        const std::vector<MessageId>& unroutable =
            compiled.competing().unroutable();
        const std::vector<std::string>& issues = compiled.validation();
        for (std::size_t i = 0; i < issues.size(); ++i)
        {
            Diagnostic d = makeDiag(Severity::kError,
                                    LintRule::kInvalidProgram, issues[i]);
            if (!unroutable.empty())
            {
                d.rule = LintRule::kUnroutableMessage;
                d.msg = unroutable[i];
                d.cell = program.message(d.msg).sender;
            }
            report.diagnostics.push_back(std::move(d));
        }
        report.verdict = LintVerdict::kInvalid;
        return report;
    }
    const CompetingAnalysis& competing = compiled.competing();

    // ------------------------------------------------------------------
    // Pass 4c: compute-op neighborhood pins (informational). A cell
    // with compute ops cannot be remapped by repair/recovery and its
    // callbacks cannot cross the serve socket.
    // ------------------------------------------------------------------
    for (CellId cell = 0; cell < program.numCells(); ++cell)
    {
        int computeOps = 0;
        for (const Op& op : program.cellOps(cell))
            if (op.isCompute())
                ++computeOps;
        if (computeOps == 0)
            continue;
        Diagnostic d = makeDiag(
            Severity::kInfo, LintRule::kComputePin,
            "cell has " + std::to_string(computeOps) +
                " compute op(s): pinned to its physical neighborhood "
                "(repair cannot remap it; callbacks do not serialize)");
        d.cell = cell;
        report.diagnostics.push_back(std::move(d));
    }

    // ------------------------------------------------------------------
    // Pass 1: deadlock certification. The basic procedure first (the
    // Theorem 1 precondition), then lookahead under the shape's real
    // R2 bound: hops(route) x effective per-queue capacity.
    // ------------------------------------------------------------------
    const int capacity = options.totalQueueCapacity();
    CrossOffResult basic = crossOff(program);
    report.basicDeadlockFree = basic.deadlockFree;

    CrossOffOptions shapeOpts;
    shapeOpts.lookahead = true;
    shapeOpts.skip_bound = routeCapacitySkipBound(competing, capacity);
    CrossOffResult atShape =
        basic.deadlockFree ? basic : crossOff(program, shapeOpts);
    if (!atShape.deadlockFree)
    {
        report.verdict = LintVerdict::kDeadlock;
        report.witness = extractWitness(program, atShape);
        for (const WitnessEntry& e : report.witness.cycle)
        {
            Diagnostic d = makeDiag(
                Severity::kError, LintRule::kDeadlockWitness,
                "blocked cycle: " + opStr(program, e.cell, e.op) +
                    " cannot pair (waits for cell " +
                    std::to_string(e.waitsFor) + "); " +
                    std::to_string(atShape.remainingOps) +
                    " transfer op(s) uncrossable at per-queue capacity " +
                    std::to_string(capacity));
            d.cell = e.cell;
            d.op = e.op;
            d.msg = e.msg;
            report.diagnostics.push_back(std::move(d));
        }
    }

    // ------------------------------------------------------------------
    // Pass 2: buffer-bound inference. Monotone in the bound, so binary
    // search; a per-message bound of maxLen words is equivalent to
    // unlimited buffering (no message has more writes to skip).
    // ------------------------------------------------------------------
    int maxLen = 1;
    for (MessageId m = 0; m < program.numMessages(); ++m)
        maxLen = std::max(maxLen, program.messageLength(m));
    if (basic.deadlockFree)
    {
        report.minUniformCapacity = 0;
        report.minUniformSkipBound = 0;
    }
    else
    {
        report.minUniformCapacity = searchSmallest(maxLen, [&](int cap) {
            CrossOffOptions o;
            o.lookahead = true;
            o.skip_bound = routeCapacitySkipBound(competing, cap);
            return crossOff(program, o).deadlockFree;
        });
        report.minUniformSkipBound = searchSmallest(maxLen, [&](int bound) {
            CrossOffOptions o;
            o.lookahead = true;
            o.skip_bound = uniformSkipBound(bound);
            return crossOff(program, o).deadlockFree;
        });
        if (report.minUniformCapacity < 0)
        {
            report.diagnostics.push_back(makeDiag(
                Severity::kError, LintRule::kNoFiniteBuffer,
                "no finite queue capacity avoids deadlock (a read cycle: "
                "rule R1 can skip writes only)"));
        }
        else
        {
            Severity sev = report.minUniformCapacity > capacity
                               ? Severity::kWarning
                               : Severity::kInfo;
            report.diagnostics.push_back(makeDiag(
                sev, LintRule::kBufferBound,
                "deadlock-free from per-queue capacity " +
                    std::to_string(report.minUniformCapacity) +
                    " (uniform skip bound " +
                    std::to_string(report.minUniformSkipBound) +
                    "); analyzed shape provides " + std::to_string(capacity)));
            if (atShape.deadlockFree)
            {
                report.diagnostics.push_back(makeDiag(
                    Severity::kWarning, LintRule::kLookaheadOnly,
                    "deadlock-free only via section 8.1 lookahead "
                    "buffering; the basic procedure fails, so Theorem 1 "
                    "certification does not apply"));
            }
        }
    }

    // ------------------------------------------------------------------
    // Pass 3: label feasibility. Checks the labeling sessions on this
    // compiled program run with (explicit labels, else section 6 with
    // the trivial fallback) against Theorem 1's conditions:
    // (i) consistency, (ii) queues per link >= largest same-label
    // group crossing it.
    // ------------------------------------------------------------------
    const std::vector<Rational>& labels = compiled.labelValues();
    if (compiled.labelingFellBack())
    {
        report.labelingFellBack = true;
        report.diagnostics.push_back(makeDiag(
            report.verdict == LintVerdict::kDeadlock ? Severity::kInfo
                                                     : Severity::kWarning,
            LintRule::kLabelingFallback,
            "section 6 labeling failed; the trivial all-1 labeling is in "
            "force (all competitors form one simultaneous group)"));
    }
    std::vector<ConsistencyIssue> inconsistent =
        checkLabelConsistency(program, labels);
    report.labelsConsistent = inconsistent.empty();
    for (const ConsistencyIssue& issue : inconsistent)
    {
        Diagnostic d = makeDiag(Severity::kError,
                                LintRule::kInconsistentLabels, issue.str(program));
        d.cell = issue.cell;
        d.op = issue.pos;
        d.msg = issue.curMsg;
        report.diagnostics.push_back(std::move(d));
    }

    MachineSpec spec;
    spec.topo = compiled.sharedTopo();
    spec.queuesPerLink = options.queuesPerLink;
    spec.queueCapacity = options.queueCapacity;
    spec.extensionCapacity = options.extensionCapacity;
    Feasibility dynamic = checkDynamicFeasibility(competing, labels, spec);
    report.feasibleAtShape = dynamic.feasible;
    report.requiredQueuesPerLink = dynamic.requiredQueuesPerLink;
    report.worstLink = dynamic.worstLink;
    if (!dynamic.feasible)
    {
        Diagnostic d = makeDiag(
            report.verdict == LintVerdict::kDeadlock ? Severity::kInfo
                                                     : Severity::kWarning,
            LintRule::kQueueInfeasible,
            "Theorem 1 condition (ii) fails: " + dynamic.reason);
        d.link = dynamic.worstLink;
        report.diagnostics.push_back(std::move(d));
    }

    if (report.verdict != LintVerdict::kDeadlock)
    {
        bool certified = report.basicDeadlockFree &&
                         report.labelsConsistent && report.feasibleAtShape;
        report.verdict =
            certified ? LintVerdict::kCertified : LintVerdict::kUnknown;
    }
    return report;
}

} // namespace syscomm
