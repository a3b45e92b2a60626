#pragma once

/**
 * @file
 * simlint: the static program-verification pass.
 *
 * The paper makes deadlock-freedom the programmer/compiler's burden
 * (section 3.3) and supplies the machinery to discharge it statically:
 * the crossing-off procedure (sections 3 and 8.1) and the Theorem 1
 * labeling conditions (sections 5-7). analyzeProgram() turns those
 * analyses into a linter: it runs over a sim::CompiledProgram plus a
 * machine shape and emits a structured AnalysisReport of typed
 * diagnostics — machine-readable coordinates (cell, message, op, link)
 * next to the human text — with four passes. It derives no route or
 * label of its own: validation, routes and the default labeling are
 * the ones the compile already made for the simulator.
 *
 *  1. **Deadlock certification.** The crossing-off procedure with
 *     section 8.1 lookahead under the shape's real R2 bound
 *     (hops x per-queue capacity). When it fails, the stuck state is
 *     distilled into a *minimal blocked-cycle witness*: the wait-for
 *     graph over stuck cell fronts (a reader waits on its message's
 *     sender, a writer on its receiver) is functional, so walking it
 *     finds a cycle — the R/W pairs that wedge each other. Every cell
 *     on that cycle has an incoming wait edge, which makes it blocked
 *     under *any* run-time assignment policy: an edge into a cell
 *     means reaching that cell's next pairable op requires either an
 *     unreachable read (reads cannot be skipped, rule R1) or skipping
 *     more uncrossed writes than the route can buffer (rule R2) — and
 *     a real machine buffers no more than the R2 bound. The witness
 *     is therefore a certificate of dynamic deadlock, not a
 *     heuristic; the cross-validation suite holds it to that.
 *  2. **Buffer-bound inference.** Deadlock-freedom under lookahead is
 *     monotone in queue capacity, so a binary search over the R2
 *     bound reports the minimum per-queue capacity (and the minimum
 *     uniform skip bound) at which the program becomes deadlock-free
 *     — section 8.1 as a capacity-planning answer. Reports -1 when no
 *     finite buffering helps (a read cycle).
 *  3. **Label feasibility.** The Theorem 1 conditions against
 *     CompiledProgram::labels(), the labeling sessions on that
 *     compiled program run with (explicit labels, else the section 6
 *     scheme with trivial fallback): consistency (condition i) and
 *     enough queues per link for the largest same-label group
 *     (condition ii), reporting which condition fails and where.
 *     kCertified is precisely the test_theorem1 recipe: basic crossing-off passes, the labeling is consistent,
 *     and the shape is dynamically feasible — Theorem 1 then
 *     guarantees completion under the compatible policy.
 *  4. **Route liveness.** Unroutable messages, program/topology cell
 *     mismatches and compute-op neighborhood pins surfaced as
 *     diagnostics instead of late compile errors or asserts.
 *
 * The serve layer runs this at admission (syscommd --lint) and caches
 * the verdict on the CompiledProgram, so N submissions of one program
 * pay for one analysis; serve/lint.h renders the report as JSON.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/program.h"
#include "core/types.h"

namespace syscomm {

namespace sim {
class CompiledProgram;
}

/** How bad a diagnostic is. */
enum class Severity : std::uint8_t
{
    kInfo = 0, ///< Property worth knowing; nothing is wrong.
    kWarning,  ///< Cannot certify; the program may still complete.
    kError,    ///< Will not run correctly (deadlock, invalid, ...).
};

const char* severityName(Severity severity);

/** Diagnostic rules. Wire ids are stable ("SL001", ...). */
enum class LintRule : std::uint8_t
{
    kInvalidProgram = 0, ///< SL001: structural validation failed.
    kUnroutableMessage,  ///< SL002: no route between the endpoints.
    kTopologyMismatch,   ///< SL003: program/topology cell counts differ.
    kComputePin,         ///< SL004: compute ops pin the neighborhood.
    kDeadlockWitness,    ///< SL010: blocked cycle (one entry per cell).
    kBufferBound,        ///< SL011: minimum capacity inference.
    kNoFiniteBuffer,     ///< SL012: no finite buffering avoids deadlock.
    kLookaheadOnly,      ///< SL013: free only with buffering (not basic).
    kLabelingFallback,   ///< SL020: section 6 failed; trivial labels.
    kInconsistentLabels, ///< SL021: label consistency violation.
    kQueueInfeasible,    ///< SL022: Theorem 1 condition (ii) fails.
};

/** Stable wire id, e.g. "SL010". */
const char* lintRuleId(LintRule rule);

/** One finding. Coordinates are optional (-1 / kInvalid* = not tied
 *  to that axis); text is the human-readable sentence. */
struct Diagnostic
{
    Severity severity = Severity::kInfo;
    LintRule rule = LintRule::kInvalidProgram;
    CellId cell = kInvalidCell;
    MessageId msg = kInvalidMessage;
    /** Op index into the cell's full program. */
    int op = -1;
    LinkIndex link = kInvalidLink;
    std::string text;

    /** "error SL010 cell=3 op=4 msg=B: ..." */
    std::string str(const Program& program) const;
};

/** One cell of the blocked cycle: the op it is wedged at and the cell
 *  it waits for (the entry for that cell follows in the cycle). */
struct WitnessEntry
{
    CellId cell = kInvalidCell;
    /** Full-program index of the cell's first uncrossed op. */
    int op = -1;
    MessageId msg = kInvalidMessage;
    /** True when the stuck op is a write (waits on the receiver);
     *  false for a read (waits on the sender). */
    bool isWrite = false;
    CellId waitsFor = kInvalidCell;
};

/**
 * The minimal blocked cycle of a statically-deadlocked program, in
 * wait-for order: entry i waits for entry (i+1) % size. Empty unless
 * the verdict is kDeadlock.
 */
struct DeadlockWitness
{
    std::vector<WitnessEntry> cycle;
    /** All cells the crossing-off procedure left stuck (the cycle is
     *  the minimal core; the rest are blocked behind it). */
    int blockedCells = 0;

    bool empty() const { return cycle.empty(); }
    /** "cell 0 waits at op 0 R(Y) for cell 1; cell 1 ..." */
    std::string str(const Program& program) const;
};

/** The analyzer's overall verdict. */
enum class LintVerdict : std::uint8_t
{
    /**
     * Theorem 1 applies: deadlock-free (basic crossing-off), the
     * compiled labeling is consistent, and the shape satisfies
     * condition (ii) — a compatible-policy run on this shape
     * completes.
     */
    kCertified = 0,
    /**
     * The crossing-off procedure with lookahead at the shape's full
     * buffering fails: the program deadlocks on this shape under any
     * assignment policy. `witness` carries the blocked cycle.
     */
    kDeadlock,
    /**
     * Neither: e.g. deadlock-free only with buffering (Theorem 1 as
     * wired does not cover it), or the shape is queue-infeasible.
     * Serveable, but not certified.
     */
    kUnknown,
    /** Structural validation failed; nothing else was analyzed. */
    kInvalid,
};

const char* lintVerdictName(LintVerdict verdict);

/** The machine shape the analysis assumes (MachineSpec minus topo). */
struct AnalyzeOptions
{
    int queuesPerLink = 2;
    int queueCapacity = 1;
    /** iWarp-style memory extension words per queue (section 8). */
    int extensionCapacity = 0;

    /** Effective per-queue capacity (the R2 bound's multiplier). */
    int totalQueueCapacity() const
    {
        return queueCapacity + extensionCapacity;
    }
};

/** Everything analyzeProgram() derives. */
struct AnalysisReport
{
    LintVerdict verdict = LintVerdict::kUnknown;
    /** The shape analyzed (echoed so cached reports self-describe). */
    AnalyzeOptions shape;
    std::vector<Diagnostic> diagnostics;
    /** Non-empty iff verdict == kDeadlock. */
    DeadlockWitness witness;

    // Pass 2: buffer-bound inference.
    /** Smallest per-queue capacity making the program deadlock-free
     *  under lookahead (0 = free without buffering, -1 = no finite
     *  capacity helps). */
    int minUniformCapacity = -1;
    /** Smallest uniform R2 skip bound (uniformSkipBound) that does it
     *  (0 = basic free, -1 = none). Differs from capacity on
     *  multi-hop routes, where the per-message bound scales with
     *  route length. */
    int minUniformSkipBound = -1;

    // Pass 3: label feasibility at the shape.
    /** Basic crossing-off verdict (lookahead-free is in `verdict`). */
    bool basicDeadlockFree = false;
    /** Section 6 labeling failed and the trivial labeling is in force
     *  (CompiledProgram::labelingFellBack()). */
    bool labelingFellBack = false;
    /** The labeling in force is consistent (condition i). */
    bool labelsConsistent = false;
    /** Condition (ii) holds on this shape. */
    bool feasibleAtShape = false;
    /** Queues per link condition (ii) demands. */
    int requiredQueuesPerLink = 0;
    LinkIndex worstLink = kInvalidLink;

    /** Any error-severity diagnostics? */
    bool hasErrors() const;
    /** Multi-line human-readable report. */
    std::string render(const Program& program) const;
};

/**
 * Run all four passes over @p compiled's validation, routes and
 * labels. The result depends only on the compiled program (its
 * program, topology and labels) and the shape, so
 * CompiledProgram::analysis() memoizes it per shape.
 */
AnalysisReport analyzeProgram(const sim::CompiledProgram& compiled,
                              const AnalyzeOptions& options = {});

} // namespace syscomm
