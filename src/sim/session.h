#pragma once

/**
 * @file
 * The reusable simulation entry point: compile once, run many.
 *
 * A SimSession binds a Program to a MachineSpec and performs all the
 * per-program work up front — validation, competing-message analysis,
 * route registration, label computation, and the allocation of every
 * link, queue, cell and kernel-side buffer. The machine hot state
 * (links, queues and their ring storage, crossings, per-cell
 * runtimes) lives in one session-owned SimArena (sim/arena.h) of
 * contiguous pools rather than per-object heap allocations. Each
 * run(RunRequest) then resets that state in place instead of
 * reallocating it, so sweeps over seeds, policies and cycle budgets
 * pay the compile cost once.
 *
 * Result materialization is opt-in: a RunRequest carries a Collect
 * bitmask, and by default a run produces only its status, cycle count
 * and SimStats counters. The heavy RunResult vectors (assignment
 * events, releases, per-message timing, received values) and the
 * compatibility audit are filled only when asked for; a RunObserver
 * can stream assignment/release/delivery events instead of
 * materializing them.
 *
 * The single-use simulateProgram() in sim/machine.h is a thin
 * wrapper over this class.
 */

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/analyze.h"
#include "core/competing.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "sim/assignment.h"
#include "sim/audit.h"
#include "sim/deadlock.h"
#include "sim/fault.h"
#include "sim/serial.h"
#include "sim/stats.h"

namespace syscomm::sim {

/**
 * The program-side compile analyses a SimSession runs over: program
 * validation, the competing-message analysis (routes), the default
 * labeling, and the route-derived registration tables (crossings per
 * link, first/last-hop endpoints, routed links, program-bearing
 * cells). None of it depends on the machine's queue resources — only
 * on the Program and the Topology — so a sweep over machine *shapes*
 * (queue count / capacity / buffering ladders, the paper's central
 * experiments) can compile once and hand the same CompiledProgram to
 * every per-shape session instead of re-running the analyses per
 * shape. ShapeSweep (sim/shape_sweep.h) is built on exactly that.
 *
 * Thread-safety: a CompiledProgram is immutable after construction
 * except for the lazily computed default labeling, which is guarded
 * by a once-flag — concurrent sessions on different threads may share
 * one instance freely (SweepRunner's workers do).
 *
 * The Program must outlive the CompiledProgram; the Topology travels
 * as a SharedTopology, so compiling against a MachineSpec's topo (or
 * handing one compiled program to a shape ladder) shares one graph
 * instead of copying it per holder.
 */
class CompiledProgram
{
  public:
    /**
     * Run the analyses. @p labels, when non-empty, becomes the
     * default labeling verbatim; otherwise @p precompute_labels picks
     * between computing the section 6 labeling now or on first use.
     */
    CompiledProgram(const Program& program, SharedTopology topo,
                    std::vector<std::int64_t> labels = {},
                    bool precompute_labels = true);

    /** Convenience: compile into a shareable handle. */
    static std::shared_ptr<const CompiledProgram>
    compile(const Program& program, SharedTopology topo,
            std::vector<std::int64_t> labels = {},
            bool precompute_labels = true);

    const Program& program() const { return program_; }
    const Topology& topo() const { return topo_; }
    /** The shared topology node (alias it, don't copy it). */
    const SharedTopology& sharedTopo() const { return topo_; }

    /** Did validation pass (program structure, one explicit label per
     *  message if any are given, a route for every message)? */
    bool valid() const { return validation_.empty(); }
    /** First validation error ("" when valid). */
    const std::string& error() const { return firstError_; }
    /** All validation errors: the structural ones or, when there are
     *  none, one per competing().unroutable() message, in order. */
    const std::vector<std::string>& validation() const
    {
        return validation_;
    }

    const CompetingAnalysis& competing() const { return competing_; }

    /**
     * The default labeling (explicit labels, else section 6 with
     * trivial fallback). Computed at most once; safe to call from
     * concurrent sessions.
     */
    const std::vector<std::int64_t>& labels() const;

    /** labels() as exact values: explicit labels as given, else the
     *  section 6 rationals before normalization (same order, ties). */
    const std::vector<Rational>& labelValues() const
    {
        (void)labels();
        return labelValues_;
    }
    /** Did labels() fall back from section 6 to the trivial labeling? */
    bool labelingFellBack() const
    {
        (void)labels();
        return labelsFellBack_;
    }

    /** Route crossings per link (sizes each arena's crossing spans). */
    const std::vector<int>& crossingsPerLink() const
    {
        return crossingsPerLink_;
    }
    /** Links at least one route crosses, descending (forward order). */
    const std::vector<LinkIndex>& routedLinksDesc() const
    {
        return routedLinksDesc_;
    }
    /** Cells with a non-empty program, ascending. */
    const std::vector<CellId>& programCells() const
    {
        return programCells_;
    }
    /** Per message: link of the route's first / last hop. */
    const std::vector<LinkIndex>& firstHopLink() const
    {
        return firstHopLink_;
    }
    const std::vector<LinkIndex>& lastHopLink() const
    {
        return lastHopLink_;
    }
    /** Per message: crossing index on that link (registration order). */
    const std::vector<int>& firstHopCross() const
    {
        return firstHopCross_;
    }
    const std::vector<int>& lastHopCross() const { return lastHopCross_; }

    /**
     * The simlint static analysis (core/analyze.h) of this program at
     * @p spec's queue shape, memoized per distinct shape: the serve
     * CompileCache holds CompiledPrograms keyed by program/topology
     * digest, so N submissions of one program pay for one analysis.
     * Thread-safe; concurrent callers of the same shape share one
     * pass. Only the queue-shape fields of @p spec are consulted (the
     * topology is the compiled one).
     */
    std::shared_ptr<const AnalysisReport>
    analysis(const MachineSpec& spec) const;

    /**
     * Process-wide count of CompiledProgram constructions, i.e. of
     * full program-side analysis passes. Tests assert compile sharing
     * with it: a ShapeSweep over N shapes must advance it by exactly
     * one.
     */
    static std::int64_t buildCount();

  private:
    const Program& program_;
    SharedTopology topo_;
    std::vector<std::string> validation_;
    std::string firstError_;
    CompetingAnalysis competing_;
    std::vector<int> crossingsPerLink_;
    std::vector<LinkIndex> routedLinksDesc_;
    std::vector<CellId> programCells_;
    std::vector<LinkIndex> firstHopLink_;
    std::vector<LinkIndex> lastHopLink_;
    std::vector<int> firstHopCross_;
    std::vector<int> lastHopCross_;

    /** Lazy default labeling; see labels(). */
    mutable std::once_flag labelsOnce_;
    mutable std::vector<std::int64_t> labels_;
    mutable std::vector<Rational> labelValues_;
    mutable bool labelsFellBack_ = false;
    bool labelsGiven_ = false;

    /** Memoized per-shape static analyses; see analysis(). */
    mutable std::mutex analysisMutex_;
    mutable std::vector<std::pair<AnalyzeOptions,
                                  std::shared_ptr<const AnalysisReport>>>
        analysisCache_;
};

/** Terminal state of a run. */
enum class RunStatus : std::uint8_t
{
    kCompleted = 0, ///< Every cell finished its program.
    kDeadlocked,    ///< Zero-progress cycle with unfinished work.
    kMaxCycles,     ///< Cycle budget exhausted (treat as a bug).
    kConfigError,   ///< Invalid program or impossible policy setup.
    /**
     * RunRequest::pauseAt reached: the run stopped mid-flight with
     * full machine state retained. Continue it with
     * SimSession::resume(), or hand the state to another session
     * (possibly running the other kernel) via adoptState() — the
     * mechanism behind the sampled-oracle equivalence harness.
     */
    kPaused,
    /**
     * Zero-progress cycle with unfinished work where injected faults
     * (RunRequest::faults) are implicated in the frozen state: the
     * run did not deadlock on its own, the hardware died under it.
     * RunResult::deadlock carries the snapshot plus fault attribution
     * (DeadlockReport::faults). The recovery pipeline (sim/recovery.h)
     * turns these into degraded-topology reruns.
     */
    kFaulted,
};

inline constexpr int kNumRunStatuses = 6;
static_assert(static_cast<int>(RunStatus::kFaulted) + 1 ==
                  kNumRunStatuses,
              "update kNumRunStatuses when adding a RunStatus — it "
              "sizes arrays indexed by the enum");

const char* runStatusName(RunStatus status);

/**
 * Which per-cycle engine drives the run.
 *
 * Both kernels implement the identical machine semantics and produce
 * bit-identical RunResults (status, cycle counts, stats, event logs);
 * tests/test_kernel_equivalence.cpp enforces this over randomized
 * programs.
 */
enum class KernelKind : std::uint8_t
{
    /**
     * Event-driven active-set kernel: per cycle, only runnable cells,
     * links with words in flight, and links with pending queue
     * requests are touched, so a cycle costs O(active work) instead
     * of O(cells + links). Cells blocked on a read wake when their
     * input queue changes; cells blocked on a write wake when a queue
     * is assigned or frees space. Stretches where the whole machine
     * only waits for queue timing (e.g. extension penalties) are
     * fast-forwarded in one step.
     */
    kEventDriven = 0,
    /**
     * Reference kernel: the original dense loop that scans every
     * link, queue, and cell each cycle. Kept as the oracle for the
     * equivalence suite and for A/B benchmarking.
     */
    kReference,
};

const char* kernelKindName(KernelKind kind);

/**
 * Opt-in result materialization. By default a run fills only status,
 * cycle count, SimStats, the labels used, and (on deadlock) the
 * deadlock snapshot; everything else costs memory proportional to the
 * run and must be requested.
 */
enum class Collect : std::uint8_t
{
    kNone = 0,
    kEvents = 1u << 0,    ///< RunResult::events (one per assignment).
    kReleases = 1u << 1,  ///< RunResult::releases.
    kMsgTiming = 1u << 2, ///< RunResult::msgTiming.
    kReceived = 1u << 3,  ///< RunResult::received (every word value).
    kAudit = 1u << 4,     ///< Run the section 7 compatibility audit.
    kAll = 0x1f,
};

constexpr Collect
operator|(Collect a, Collect b)
{
    return static_cast<Collect>(static_cast<std::uint8_t>(a) |
                                static_cast<std::uint8_t>(b));
}

constexpr Collect
operator&(Collect a, Collect b)
{
    return static_cast<Collect>(static_cast<std::uint8_t>(a) &
                                static_cast<std::uint8_t>(b));
}

inline Collect&
operator|=(Collect& a, Collect b)
{
    a = a | b;
    return a;
}

/** Does @p set include @p flag? */
constexpr bool
collects(Collect set, Collect flag)
{
    return (set & flag) != Collect::kNone;
}

/**
 * Streaming sink for run events: an alternative to materializing the
 * event vectors when a consumer only wants to observe the assignment
 * trace (or tail deliveries) as they happen. Hooks fire regardless of
 * the Collect flags; the default implementations do nothing.
 *
 * The observer is invoked from whichever thread executes the run (a
 * SweepRunner worker, for sweeps), never concurrently for one run.
 * One observer instance attached to several requests of a threaded
 * sweep IS called concurrently — from a different worker per request
 * — and must synchronize its own state.
 */
class RunObserver
{
  public:
    virtual ~RunObserver() = default;

    /** A queue was assigned to a message. */
    virtual void onAssign(const AssignmentEvent& event) { (void)event; }
    /** A queue was released (queueId = the queue freed). */
    virtual void onRelease(const AssignmentEvent& event) { (void)event; }
    /** A receiver consumed word @p seq of @p msg. */
    virtual void
    onDeliver(MessageId msg, int seq, double value, Cycle now)
    {
        (void)msg;
        (void)seq;
        (void)value;
        (void)now;
    }
};

/**
 * Session-scoped configuration: everything that shapes the
 * compiled/allocated machine state shared by every run.
 */
struct SessionOptions
{
    KernelKind kernel = KernelKind::kEventDriven;
    /**
     * Default labels per MessageId for the compatible policies and
     * the audit. Left empty, the session computes them with the
     * section 6 scheme (trivial fallback) — once, not per run.
     */
    std::vector<std::int64_t> labels;
    /**
     * Compute the default labeling at construction. Turn off for
     * sweeps that never need labels (pure FCFS/random baselines); a
     * run that does need them still computes them lazily, once.
     */
    bool precomputeLabels = true;
    /** Memory-to-memory communication model (Fig. 1 baseline). */
    bool memoryToMemory = false;
    /** Cycles per local memory access in memory-to-memory mode. */
    int memAccessCost = 1;
};

/** Per-run knobs: everything that may vary between runs of a session. */
struct RunRequest
{
    PolicyKind policy = PolicyKind::kCompatible;
    std::uint64_t seed = 1;
    Cycle maxCycles = 1'000'000;
    /** What to materialize in the RunResult (default: stats only). */
    Collect collect = Collect::kNone;
    /** Labels override for this run; empty = the session's labels. */
    std::vector<std::int64_t> labels;
    /** Optional streaming sink; must outlive the run. */
    RunObserver* observer = nullptr;
    /**
     * 0 = run to a terminal status. Otherwise pause at the first
     * executed cycle >= pauseAt (termination wins a tie): run()
     * returns a snapshot result with status kPaused — counters,
     * collected vectors and queue statistics settled through the
     * pause cycle exactly as the reference kernel would report them —
     * and the session keeps the mid-run machine state for resume()
     * or another session's adoptState(). Pausing never perturbs the
     * run: resuming to the end produces the bit-identical result an
     * unpaused run would have. Sweeps should leave this 0 — a paused
     * worker result is just a truncated run (the pool reuses the
     * session safely; the paused state dies at its next run()).
     */
    Cycle pauseAt = 0;
    /**
     * Deterministic fault schedule, or nullptr for healthy hardware.
     * Must outlive the run (and any resume/adoptState/
     * restoreCheckpoint chain continuing it — a restore replays the
     * plan's already-due events to rebuild the dead-link/dead-cell
     * state the checkpoint's machine pools do not carry). Both kernels
     * apply the plan identically, so faulted runs stay bit-identical
     * across kernels and pause boundaries. An invalid plan (targets
     * outside the machine) is a kConfigError.
     */
    const FaultPlan* faults = nullptr;
};

/**
 * Does this request need a labeling (compatible policies consume
 * labels; the audit checks against them)? Shared by SimSession's
 * label resolution and SweepRunner's decision to pre-resolve labels
 * for its workers — keep the two in lockstep.
 */
inline bool
runNeedsLabels(const RunRequest& request)
{
    return request.policy == PolicyKind::kCompatible ||
           request.policy == PolicyKind::kCompatibleEager ||
           collects(request.collect, Collect::kAudit);
}

/** Outcome of one run. */
struct RunResult
{
    RunStatus status = RunStatus::kConfigError;
    Cycle cycles = 0;
    std::string error; ///< set for kConfigError
    SimStats stats;
    DeadlockReport deadlock;
    /** Collect::kEvents — queue assignments, in order. */
    std::vector<AssignmentEvent> events;
    /** Collect::kReleases — queue releases (queueId = queue freed). */
    std::vector<AssignmentEvent> releases;
    /** Collect::kAudit. */
    AuditReport audit;
    /**
     * Collect::kMsgTiming — per message: cycle its first word entered
     * the network and cycle its last word was read (-1 when never).
     */
    std::vector<std::pair<Cycle, Cycle>> msgTiming;
    /**
     * Labels the run used (as given or as computed). Empty when the
     * run needed none (label-free policy, no audit, no override) —
     * identical requests always report identical labels, regardless
     * of what earlier runs of the session resolved.
     */
    std::vector<std::int64_t> labelsUsed;
    /** Collect::kReceived — values received per message, in order. */
    std::vector<std::vector<double>> received;

    bool completed() const { return status == RunStatus::kCompleted; }
    const char* statusStr() const { return runStatusName(status); }
};

/**
 * Serialize the stats-level portion of a RunResult — status, cycles,
 * error, SimStats, labels used, and the deadlock report; NOT the
 * opt-in Collect vectors (events, releases, timing, received values)
 * or the audit. A stats-only run (Collect::kNone) round-trips
 * losslessly, which is what ShapeSweep's crash-resume journal relies
 * on to replay finished rows bit-identically.
 */
void saveRunResult(ByteWriter& out, const RunResult& result);

/** Restore saveRunResult() bytes; false on a torn stream. */
bool loadRunResult(ByteReader& in, RunResult& result);

/**
 * The run-progress header of a saveCheckpoint() stream, readable
 * without a session: what a recovery pipeline needs to know about an
 * interrupted run — how far it got (cycles, per-message stream
 * positions) and what it was running (machine digest, fault-plan
 * digest, kernel). The machine pools themselves are not parsed.
 */
struct CheckpointInfo
{
    std::uint64_t machineDigest = 0;
    /** FaultPlan::digest() of the run's plan (0 = no faults). */
    std::uint64_t faultPlanDigest = 0;
    /** Checkpoint written by the event-driven kernel? */
    bool eventKernel = false;
    /** First cycle a resumed run executes. */
    Cycle resumeFrom = 0;
    /** Pause cycle the checkpoint captured. */
    Cycle cycles = 0;
    /** Per message: words the sender has pushed into the network. */
    std::vector<int> writeSeq;
    /** Per message: words the receiver has consumed. writeSeq[m] -
     *  readSeq[m] words were in flight and are LOST if the machine
     *  is rebuilt from this checkpoint's progress alone — recovery
     *  re-sends from readSeq (at-least-once delivery). */
    std::vector<int> readSeq;
};

/** Parse the header of saveCheckpoint() bytes; false if torn or not
 *  a checkpoint stream of the current version. */
bool peekCheckpointInfo(const std::uint8_t* data, std::size_t size,
                        CheckpointInfo& info);

/**
 * A compiled, reusable simulator instance. The program and spec must
 * outlive the session. Not thread-safe: one session serves one thread
 * (SweepRunner gives each worker its own).
 */
class SimSession
{
  public:
    SimSession(const Program& program, const MachineSpec& spec,
               SessionOptions options = {});

    /**
     * Build over shared compile analyses instead of re-running them:
     * the shape-sweep constructor. @p compiled must be non-null and
     * its topology must structurally match @p spec.topo (same cells,
     * same links) — a mismatch makes the session invalid, it never
     * runs on foreign routes. SessionOptions::labels still overrides
     * the compiled default labeling for this session;
     * SessionOptions::precomputeLabels is ignored (the shared object
     * owns that choice).
     */
    SimSession(std::shared_ptr<const CompiledProgram> compiled,
               const MachineSpec& spec, SessionOptions options = {});

    ~SimSession();

    SimSession(const SimSession&) = delete;
    SimSession& operator=(const SimSession&) = delete;
    SimSession(SimSession&&) noexcept;
    SimSession& operator=(SimSession&&) noexcept;

    /**
     * Run to completion/deadlock/budget (or RunRequest::pauseAt),
     * resetting machine state in place first. Call as many times as
     * you like; calling it while paused abandons the paused run.
     */
    RunResult run(const RunRequest& request = {});

    /**
     * Continue a paused run under its original request, to the next
     * pause point (@p pauseAt, 0 = to a terminal status). Paused
     * snapshots and the final result are bit-identical to what a
     * single unpaused run would produce. Returns kConfigError if the
     * session is not paused.
     */
    RunResult resume(Cycle pauseAt = 0);

    /** Is a paused run waiting for resume()? */
    bool paused() const;

    /**
     * Adopt the complete mid-run state of @p other — machine state
     * (queues, crossings, cells), accumulated results and statistics,
     * policy state, and the original run configuration — leaving this
     * session paused at the same cycle, ready to resume(). Both
     * sessions must be built over the same Program and MachineSpec
     * objects with the same memory model; the *kernels may differ*,
     * which is the point: the sampled-oracle harness checkpoints the
     * fast event-driven kernel and replays sampled cycle windows
     * under the dense reference kernel from the same state. Returns
     * false (leaving this session untouched) when @p other is not
     * paused or the sessions are incompatible.
     */
    bool adoptState(const SimSession& other);

    /**
     * FNV digest of the kernel-independent machine state (crossing
     * phases, queue contents and counters, cell runtimes, stream
     * positions). Two sessions that executed the same machine history
     * digest identically regardless of kernel — compare at matching
     * pause cycles for an O(machine) bit-identity check that needs no
     * result materialization.
     */
    std::uint64_t machineDigest() const;

    /**
     * Serialize the paused run — machine pools, run progress and
     * statistics, policy decision state — into @p out for crash
     * resume across process invocations (ShapeSweep's journal is the
     * production consumer). Returns false, appending nothing, unless
     * the session is paused on a stats-only run (RunRequest::collect
     * was kNone; the opt-in result vectors are not serialized).
     * Restore with restoreCheckpoint() on a session built over the
     * same program, topology and machine spec — resuming then yields
     * results bit-identical to the uninterrupted run.
     */
    bool saveCheckpoint(std::vector<std::uint8_t>& out) const;

    /**
     * Rebuild a paused run from saveCheckpoint() bytes, leaving the
     * session paused at the checkpoint cycle ready for resume().
     * @p request must be the interrupted run's original RunRequest
     * (policy, seed, budget, labels; collect must be kNone) — the
     * checkpoint stores machine state, not run configuration. Returns
     * false, abandoning any restored fragments, when the stream is
     * torn, was produced by a differently-shaped machine, or the
     * restored state fails its recorded machine digest.
     */
    bool restoreCheckpoint(const RunRequest& request,
                           const std::uint8_t* data, std::size_t size);
    bool restoreCheckpoint(const RunRequest& request,
                           const std::vector<std::uint8_t>& bytes);

    /** Did construction-time validation pass? */
    bool valid() const;
    /** First validation error ("" when valid). */
    const std::string& error() const;
    /** The compile analyses this session runs over (never null). */
    const std::shared_ptr<const CompiledProgram>& compiled() const;
    /**
     * The session's default labels (computes them on first use if
     * construction skipped them).
     */
    const std::vector<std::int64_t>& labels();
    /** run() calls so far (config-error runs included). */
    int runCount() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace syscomm::sim
