#include "sim/session.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <functional>
#include <utility>

#include "core/labeling.h"
#include "sim/active_set.h"
#include "sim/arena.h"
#include "sim/cell_exec.h"
#include "sim/fnv.h"
#include "sim/link_state.h"
#include "sim/serial.h"

namespace syscomm::sim {

const char*
runStatusName(RunStatus status)
{
    switch (status) {
      case RunStatus::kCompleted:
        return "completed";
      case RunStatus::kDeadlocked:
        return "deadlocked";
      case RunStatus::kMaxCycles:
        return "max-cycles";
      case RunStatus::kConfigError:
        return "config-error";
      case RunStatus::kPaused:
        return "paused";
      case RunStatus::kFaulted:
        return "faulted";
    }
    return "?";
}

const char*
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::kEventDriven:
        return "event-driven";
      case KernelKind::kReference:
        return "reference";
    }
    return "?";
}

namespace {

std::string
opText(const Program& program, const Op& op)
{
    if (op.isCompute())
        return "compute";
    return std::string(op.isWrite() ? "W(" : "R(") +
           program.message(op.msg).name + ")";
}

// Hierarchical bitmaps: O(1) insert/erase and O(levels) cursor seeks
// regardless of how many cells/links are active, so dense-active
// phases on 100k-cell arrays cost the same per mutation as sparse
// ones (the sorted-vector predecessor went quadratic there).
using LinkSet = BitIndexSet<LinkIndex, kInvalidLink>;
using CellSet = BitIndexSet<CellId, kInvalidCell>;

const std::vector<std::int64_t> kNoLabels;

/** Process-wide analysis-pass counter behind CompiledProgram::buildCount. */
std::atomic<std::int64_t> compiledBuilds{0};

/** Structural topology equality: same cells, same links, same order. */
bool
sameTopology(const Topology& a, const Topology& b)
{
    if (a.numCells() != b.numCells() || a.numLinks() != b.numLinks())
        return false;
    for (LinkIndex l = 0; l < a.numLinks(); ++l) {
        if (a.link(l).a != b.link(l).a || a.link(l).b != b.link(l).b)
            return false;
    }
    return true;
}

// Checkpoint stream framing (SimSession::saveCheckpoint).
// Version history: 2 added the fault-plan digest to the header and the
// degraded-capacity clamp to each queue's serialized scalars. 3 is
// the portable format: every scalar fixed little-endian via
// sim/serial.h, struct pools serialized field by field — a checkpoint
// written on any host restores on any other.
constexpr std::uint32_t kCheckpointMagic = 0x53594b43u; // "CKYS"
constexpr std::uint32_t kCheckpointVersion = 3;

void
saveStats(ByteWriter& w, const SimStats& s)
{
    w.put(s.cycles);
    w.put(s.wordsDelivered);
    w.put(s.wordsForwarded);
    w.put(s.opsExecuted);
    w.put(s.computeOps);
    w.put(s.assignments);
    w.put(s.releases);
    w.put(s.requests);
    w.put(s.requestWaitCycles);
    w.put(s.cellBlockedCycles);
    w.put(s.memAccesses);
    w.put(s.memStallCycles);
    w.put(s.queueBusyCycles);
    w.put(s.queueOccupancySum);
    w.put(s.extendedWords);
    w.putVector(s.perCellBlocked);
}

bool
loadStats(ByteReader& r, SimStats& s)
{
    s.cycles = r.get<Cycle>();
    s.wordsDelivered = r.get<std::int64_t>();
    s.wordsForwarded = r.get<std::int64_t>();
    s.opsExecuted = r.get<std::int64_t>();
    s.computeOps = r.get<std::int64_t>();
    s.assignments = r.get<std::int64_t>();
    s.releases = r.get<std::int64_t>();
    s.requests = r.get<std::int64_t>();
    s.requestWaitCycles = r.get<std::int64_t>();
    s.cellBlockedCycles = r.get<std::int64_t>();
    s.memAccesses = r.get<std::int64_t>();
    s.memStallCycles = r.get<std::int64_t>();
    s.queueBusyCycles = r.get<std::int64_t>();
    s.queueOccupancySum = r.get<std::int64_t>();
    s.extendedWords = r.get<std::int64_t>();
    return r.getVector(s.perCellBlocked) && r.ok();
}

} // namespace

void
saveRunResult(ByteWriter& w, const RunResult& result)
{
    w.put(result.status);
    w.put(result.cycles);
    w.putString(result.error);
    saveStats(w, result.stats);
    w.putVector(result.labelsUsed);
    const DeadlockReport& d = result.deadlock;
    w.put(d.deadlocked);
    w.put(d.atCycle);
    w.put(static_cast<std::uint64_t>(d.cells.size()));
    for (const CellBlockInfo& c : d.cells) {
        w.put(c.cell);
        w.put(c.pc);
        w.putString(c.op);
        w.putString(c.reason);
    }
    w.put(static_cast<std::uint64_t>(d.links.size()));
    for (const LinkSnapshot& l : d.links) {
        w.put(l.link);
        w.put(l.a);
        w.put(l.b);
        w.put(static_cast<std::uint64_t>(l.queues.size()));
        for (const QueueSnapshot& q : l.queues) {
            w.put(q.id);
            w.putString(q.msg);
            w.put(q.occupancy);
            w.put(q.capacity);
        }
        w.put(static_cast<std::uint64_t>(l.waiting.size()));
        for (const std::string& s : l.waiting)
            w.putString(s);
    }
    w.put(static_cast<std::uint64_t>(d.faults.size()));
    for (const FaultAttribution& f : d.faults) {
        w.put(f.eventIndex);
        w.putString(f.event);
        w.putString(f.why);
    }
}

bool
loadRunResult(ByteReader& r, RunResult& result)
{
    result = RunResult{};
    result.status = r.get<RunStatus>();
    result.cycles = r.get<Cycle>();
    if (!r.getString(result.error) || !loadStats(r, result.stats) ||
        !r.getVector(result.labelsUsed))
        return false;
    DeadlockReport& d = result.deadlock;
    d.deadlocked = r.get<bool>();
    d.atCycle = r.get<Cycle>();
    const auto numCells = r.get<std::uint64_t>();
    if (!r.ok() || numCells > r.remaining())
        return false;
    d.cells.resize(static_cast<std::size_t>(numCells));
    for (CellBlockInfo& c : d.cells) {
        c.cell = r.get<CellId>();
        c.pc = r.get<int>();
        if (!r.getString(c.op) || !r.getString(c.reason))
            return false;
    }
    const auto numLinks = r.get<std::uint64_t>();
    if (!r.ok() || numLinks > r.remaining())
        return false;
    d.links.resize(static_cast<std::size_t>(numLinks));
    for (LinkSnapshot& l : d.links) {
        l.link = r.get<LinkIndex>();
        l.a = r.get<CellId>();
        l.b = r.get<CellId>();
        const auto numQueues = r.get<std::uint64_t>();
        if (!r.ok() || numQueues > r.remaining())
            return false;
        l.queues.resize(static_cast<std::size_t>(numQueues));
        for (QueueSnapshot& q : l.queues) {
            q.id = r.get<int>();
            if (!r.getString(q.msg))
                return false;
            q.occupancy = r.get<int>();
            q.capacity = r.get<int>();
        }
        const auto numWaiting = r.get<std::uint64_t>();
        if (!r.ok() || numWaiting > r.remaining())
            return false;
        l.waiting.resize(static_cast<std::size_t>(numWaiting));
        for (std::string& s : l.waiting) {
            if (!r.getString(s))
                return false;
        }
    }
    const auto numFaults = r.get<std::uint64_t>();
    if (!r.ok() || numFaults > r.remaining())
        return false;
    d.faults.resize(static_cast<std::size_t>(numFaults));
    for (FaultAttribution& f : d.faults) {
        f.eventIndex = r.get<int>();
        if (!r.getString(f.event) || !r.getString(f.why))
            return false;
    }
    return r.ok() &&
           static_cast<int>(result.status) < kNumRunStatuses;
}

bool
peekCheckpointInfo(const std::uint8_t* data, std::size_t size,
                   CheckpointInfo& info)
{
    info = CheckpointInfo{};
    // Fixed header: magic, version, digest, kernel flag, fault-plan
    // digest, resumeFrom, cycles. Anything shorter cannot be a
    // checkpoint; reject before parsing rather than relying on the
    // reader's zero-fill (a truncated header must never produce a
    // plausible-looking info).
    constexpr std::size_t kFixedHeader = 4 + 4 + 8 + 1 + 8 + 8 + 8;
    if (data == nullptr || size < kFixedHeader)
        return false;
    ByteReader r(data, size);
    if (r.get<std::uint32_t>() != kCheckpointMagic ||
        r.get<std::uint32_t>() != kCheckpointVersion)
        return false;
    info.machineDigest = r.get<std::uint64_t>();
    info.eventKernel = r.get<std::uint8_t>() != 0;
    info.faultPlanDigest = r.get<std::uint64_t>();
    info.resumeFrom = r.get<Cycle>();
    info.cycles = r.get<Cycle>();
    if (!r.ok() || info.resumeFrom < 0 || info.cycles < 0)
        return false;
    // Per-message stream positions: getVector bounds each length
    // against the bytes actually present, and the two vectors are
    // per-message so their sizes must agree — a bit-flipped length
    // fails here instead of fabricating progress.
    if (!r.getVector(info.writeSeq) || !r.getVector(info.readSeq) ||
        info.writeSeq.size() != info.readSeq.size())
        return false;
    return r.ok();
}

// ---------------------------------------------------------------------
// CompiledProgram
// ---------------------------------------------------------------------

CompiledProgram::CompiledProgram(const Program& program,
                                 SharedTopology topo,
                                 std::vector<std::int64_t> labels,
                                 bool precompute_labels)
    : program_(program), topo_(std::move(topo))
{
    ++compiledBuilds;
    if (!labels.empty()) {
        labels_ = std::move(labels);
        labelValues_.assign(labels_.begin(), labels_.end());
        labelsGiven_ = true;
    }
    validation_ = program.validate(topo_.numCells());
    if (labelsGiven_ &&
        static_cast<int>(labels_.size()) != program.numMessages())
        validation_.push_back("explicit labels must be one per message");
    if (validation_.empty()) {
        competing_ = CompetingAnalysis::analyze(program, topo_);
        for (MessageId m : competing_.unroutable()) {
            const MessageDecl& decl = program.message(m);
            validation_.push_back(
                "message " + decl.name + " has no route from cell " +
                std::to_string(decl.sender) + " to cell " +
                std::to_string(decl.receiver));
        }
    }
    if (!validation_.empty()) {
        firstError_ = "invalid program: " + validation_.front();
        return;
    }

    // One pass over the route set derives every registration table a
    // session needs: crossings per link (arena span sizes), the
    // first/last-hop endpoints with their crossing indices (the
    // crossing index is simply the number of crossings registered on
    // that link so far — sessions register in this same (message,
    // hop) order), the routed links, and the program-bearing cells.
    crossingsPerLink_.assign(topo_.numLinks(), 0);
    firstHopLink_.assign(program.numMessages(), kInvalidLink);
    lastHopLink_.assign(program.numMessages(), kInvalidLink);
    firstHopCross_.assign(program.numMessages(), -1);
    lastHopCross_.assign(program.numMessages(), -1);
    for (MessageId m = 0; m < program.numMessages(); ++m) {
        const Route& route = competing_.route(m);
        for (int h = 0; h < route.numHops(); ++h) {
            const LinkIndex l = route.hops[h].link;
            const int crossIdx = crossingsPerLink_[l]++;
            if (h == 0) {
                firstHopLink_[m] = l;
                firstHopCross_[m] = crossIdx;
            }
            if (h + 1 == route.numHops()) {
                lastHopLink_[m] = l;
                lastHopCross_[m] = crossIdx;
            }
        }
    }
    for (LinkIndex l = 0; l < topo_.numLinks(); ++l) {
        if (crossingsPerLink_[l] > 0)
            routedLinksDesc_.push_back(l);
    }
    std::sort(routedLinksDesc_.begin(), routedLinksDesc_.end(),
              std::greater<LinkIndex>());
    for (CellId c = 0; c < program.numCells(); ++c) {
        if (!program.cellOps(c).empty())
            programCells_.push_back(c);
    }
    if (precompute_labels && !labelsGiven_)
        (void)this->labels();
}

std::shared_ptr<const CompiledProgram>
CompiledProgram::compile(const Program& program, SharedTopology topo,
                         std::vector<std::int64_t> labels,
                         bool precompute_labels)
{
    return std::make_shared<const CompiledProgram>(
        program, std::move(topo), std::move(labels), precompute_labels);
}

const std::vector<std::int64_t>&
CompiledProgram::labels() const
{
    if (labelsGiven_ || !valid())
        return labels_;
    std::call_once(labelsOnce_, [this] {
        Labeling labeling = labelMessages(program_);
        if (!labeling.success) {
            labeling = trivialLabeling(program_);
            labelsFellBack_ = true;
        }
        labels_ = labeling.normalized();
        labelValues_ = std::move(labeling.labels);
    });
    return labels_;
}

std::shared_ptr<const AnalysisReport>
CompiledProgram::analysis(const MachineSpec& spec) const
{
    AnalyzeOptions options;
    options.queuesPerLink = spec.queuesPerLink;
    options.queueCapacity = spec.queueCapacity;
    options.extensionCapacity = spec.extensionCapacity;
    std::lock_guard<std::mutex> lock(analysisMutex_);
    for (const auto& [shape, report] : analysisCache_) {
        if (shape.queuesPerLink == options.queuesPerLink &&
            shape.queueCapacity == options.queueCapacity &&
            shape.extensionCapacity == options.extensionCapacity)
            return report;
    }
    auto report = std::make_shared<const AnalysisReport>(
        analyzeProgram(*this, options));
    analysisCache_.emplace_back(options, report);
    return report;
}

std::int64_t
CompiledProgram::buildCount()
{
    return compiledBuilds.load();
}

/**
 * The simulation engine. Everything allocated here is sized once at
 * construction and reset in place by resetRun(); run() must not
 * allocate proportionally to machine size, only to what it is asked
 * to collect.
 */
struct SimSession::Impl
{
    // -----------------------------------------------------------------
    // Compile-once state (immutable across runs)
    //
    // The program-side analyses live in a CompiledProgram that may be
    // shared with other sessions (ShapeSweep builds one per sweep and
    // hands it to every per-shape session); the references below are
    // stable aliases into it, kept so the kernels read exactly as
    // they did when Impl owned these tables directly.
    // -----------------------------------------------------------------

    std::shared_ptr<const CompiledProgram> compiled;

    const Program& program;
    const MachineSpec& spec;
    SessionOptions options;

    /** Compiled program valid *and* the spec matches its topology. */
    bool configOk = false;
    std::string firstError;

    const CompetingAnalysis& competing;

    /**
     * Links at least one route crosses, descending index: the
     * forwarding order. Descending means that, for ascending routes,
     * downstream queues drain before upstream ones push into them.
     * Links no message ever crosses are never scanned — and never
     * need resetting either, so the per-run reset cost is O(routed
     * links), not O(machine).
     */
    const std::vector<LinkIndex>& routedLinksDesc;

    /**
     * Cells with a non-empty program, ascending. Only these ever
     * mutate (empty-program cells are born done and the kernels never
     * step them), so they bound the per-run cell reset.
     */
    const std::vector<CellId>& programCells;

    /**
     * Flat per-message route endpoints: the first/last hop's link and
     * the crossing's index in that link's crossing list. The sender
     * and receiver fast paths (executeWrite/executeRead) run once per
     * word per cell visit; two contiguous array loads replace a Route
     * pointer chase plus a crossing binary search there.
     */
    const std::vector<LinkIndex>& firstHopLink;
    const std::vector<LinkIndex>& lastHopLink;
    const std::vector<int>& firstHopCross;
    const std::vector<int>& lastHopCross;

    bool eventMode = false;
    int runs = 0;

    // -----------------------------------------------------------------
    // Machine state (reset in place per run)
    // -----------------------------------------------------------------

    /**
     * Owner of every hot-state object: links, queues, queue ring
     * storage, crossings and their lookup index, per-cell runtimes —
     * each a single contiguous pool (see arena.h for why). The spans
     * below are stable views into it, kept so the kernels read
     * exactly as they did when these were owning vectors.
     */
    SimArena arena;
    Span<LinkState> links;
    Span<CellRuntime> cells;

    /** Next word index each sender will write / receiver will read. */
    std::vector<int> writeSeq;
    std::vector<int> readSeq;

    RunResult result;

    // -----------------------------------------------------------------
    // Per-run configuration (set at the top of run())
    // -----------------------------------------------------------------

    AssignmentPolicy* policy = nullptr;
    const std::vector<std::int64_t>* runLabels = &kNoLabels;
    RunObserver* observer = nullptr;
    Cycle maxCycles = 0;
    bool collectEvents = false;
    bool needEvents = false; ///< events vector feeds the audit too
    bool collectReleases = false;
    bool collectTiming = false;
    bool collectReceived = false;
    bool doAudit = false;

    /**
     * One cached policy instance per PolicyKind, rebuilt only when
     * the run's labels differ from the cached copy; reseeded via
     * AssignmentPolicy::resetRun() so a reused policy is
     * indistinguishable from a freshly constructed one.
     */
    struct CachedPolicy
    {
        std::unique_ptr<AssignmentPolicy> policy;
        std::vector<std::int64_t> labels;
    };
    std::array<CachedPolicy, kNumPolicyKinds> policyCache;

    // -----------------------------------------------------------------
    // Pause/resume state (the sampled-oracle checkpoint machinery)
    // -----------------------------------------------------------------

    /** A paused run is waiting for resume(). */
    bool isPaused = false;
    /** Pause target of the executing run segment (0 = none). */
    Cycle pauseTarget = 0;
    /** First cycle the next run segment executes. */
    Cycle resumeFrom = 1;
    /**
     * Owned copy of the run labels, filled at pause (the RunRequest
     * that lent runLabels its storage may die before resume) and by
     * adoptState (the donor's labels must survive the donor).
     */
    std::vector<std::int64_t> ownedLabels;
    /**
     * Policy cloned from an adoptState donor mid-run; lives outside
     * the per-kind cache because its internal state (e.g. the random
     * policy's per-link decision counters) belongs to the adopted
     * run, not to a fresh seed.
     */
    std::unique_ptr<AssignmentPolicy> adoptedPolicy;

    // -----------------------------------------------------------------
    // Fault-injection state (RunRequest::faults). Both kernels apply
    // due plan events at the top of every executed cycle and consult
    // the derived flags below at exactly the same points, so faulted
    // runs stay bit-identical across kernels. Everything here is a
    // pure function of (plan, current cycle): checkpoints persist only
    // the machine pools (plus each queue's capacity clamp, which lives
    // in HwQueue), and restore/adopt rebuild the flags by replaying
    // the plan's already-due events.
    // -----------------------------------------------------------------

    /** The active run's plan (borrowed, like the observer). */
    const FaultPlan* faults = nullptr;
    /** Plan present and non-empty: gates every hot-path fault check. */
    bool faultsActive = false;
    /** Next plan event to apply (plan events are sorted by cycle). */
    std::size_t faultCursor = 0;
    /** Per link: killed by a fault (permanently unusable). */
    std::vector<char> linkDead;
    /** Per cell: killed by a fault (frozen, never steps again). */
    std::vector<char> cellDead;
    /** Per link: unusable while now < this (transient stall). */
    std::vector<Cycle> linkStallUntil;
    /** Stalls whose expiry still owes a wake/recheck. */
    struct ActiveStall
    {
        LinkIndex link;
        Cycle until;
    };
    std::vector<ActiveStall> activeStalls;
    /**
     * Targets the current run's plan actually touched, so the per-run
     * reset stays O(affected hardware + plan), not O(machine) — the
     * same discipline resetRun() applies to routed links. Duplicates
     * are possible (a link both stalled and killed) and harmless.
     */
    std::vector<LinkIndex> faultTouchedLinks;
    std::vector<CellId> faultTouchedCells;
    std::vector<std::pair<LinkIndex, int>> degradedQueues;

    // -----------------------------------------------------------------
    // Event-driven kernel state (unused by the reference kernel).
    //
    // The invariant behind every set here: it is always safe to wake
    // or revisit too much (a spurious visit blocks again and accounts
    // identically to the dense kernel), but never to wake too late.
    // -----------------------------------------------------------------

    /** Cells that must be visited next cellPhase, ascending id. */
    CellSet activeCells;
    int doneCells = 0;
    /** Link a sleeping cell waits on (kInvalidLink = none). */
    std::vector<LinkIndex> cellWaitLink;
    /**
     * Cells to wake on any queue event of a link, as intrusive singly
     * linked lists over two flat arrays: waiterHead[link] is the
     * first waiting cell (kInvalidCell = none), waiterNext[cell] the
     * next. A cell waits on at most one link, so the arrays are exact
     * — and they replace a vector-of-vectors whose ~per-link heap
     * blocks were the last scattered allocations on the wake path.
     * Wake order differs from the old vector order, but waiters only
     * ever get inserted into the activeCells bitmap, which is
     * order-insensitive.
     */
    std::vector<CellId> waiterHead;
    std::vector<CellId> waiterNext;
    /**
     * (cycle, cell) wake-ups for purely time-driven queue readiness.
     * Bucketed by distance: almost every timed wake is for the very
     * next cycle (a word pushed this cycle is consumable the next),
     * so those go into a flat buffer drained wholesale at the next
     * executed cycle — O(1) per wake instead of a heap push/pop on a
     * machine-sized heap. Only far wakes (extension penalties) use
     * the min-heap. The buffer never survives a fast-forward jump: a
     * non-empty buffer forces nextInterestingCycle to now + 1, so the
     * kernel cannot skip the cycle the buffer is due.
     */
    std::vector<CellId> nextCycleWakes;
    std::vector<CellId> wakeScratch;
    std::vector<std::pair<Cycle, CellId>> timedWakes;

    /** Per link: assigned, non-empty, non-final-hop queues ("hot"). */
    std::vector<int> fwdCount;
    LinkSet fwdLinks;
    /** Per link: crossings in kRequested phase (policy must run). */
    std::vector<int> pendingCount;
    LinkSet pendingLinks;
    /** Links whose state changed this cycle: re-tick the policy once. */
    std::vector<char> recheckFlag;
    std::vector<LinkIndex> recheckList;
    std::vector<LinkIndex> tickScratch;

    /**
     * Queue timed events: one (ready cycle, link, queue) entry per
     * queue front that will mature by time alone, kept as a min-heap
     * over contiguous storage. An entry is live while its queue is
     * non-empty and the front's ready cycle still equals the recorded
     * one; stale entries (the front was popped or replaced) are
     * discarded lazily at the top. This replaces the per-link
     * full-queue scans of the old timed-event check: the fast-forward
     * target is the heap top, O(1) plus amortized stale pops, instead
     * of O(non-empty links x queues per link).
     */
    struct QueueTimedEvent
    {
        Cycle ready;
        LinkIndex link;
        int queue;
    };
    std::vector<QueueTimedEvent> queueEvents;
    /**
     * Heap-ordered prefix of queueEvents; entries past it are an
     * unsorted tail appended since the last query. Scheduling on the
     * hot path is therefore a plain push_back — the heap property is
     * restored lazily (ensureQueueEventHeap) only when a
     * zero-progress cycle actually asks for the minimum.
     */
    std::size_t queueEventsHeaped = 0;
    /** Compact (drop stale entries in bulk) past this size. */
    std::size_t queueEventCompactLimit = 64;

    /** Out-params of the executors for sleep registration. */
    LinkIndex blockLink = kInvalidLink;
    Cycle blockTimedWake = -1;

    /** Per-tick scratch; tickLink runs on the per-cycle hot path. */
    std::vector<AssignmentDecision> decisionScratch;

    /**
     * High-water marks of the opt-in result vectors across this
     * session's runs: each run's vectors are moved out to the caller,
     * so without a reserve every collecting run would regrow them
     * from scratch. Reserving the largest size seen makes the reuse
     * path allocation-free in steady state.
     */
    std::size_t hwEvents = 0;
    std::size_t hwReleases = 0;

    Impl(std::shared_ptr<const CompiledProgram> c, const MachineSpec& s,
         SessionOptions o)
        : compiled(std::move(c)),
          program(compiled->program()),
          spec(s),
          options(std::move(o)),
          competing(compiled->competing()),
          routedLinksDesc(compiled->routedLinksDesc()),
          programCells(compiled->programCells()),
          firstHopLink(compiled->firstHopLink()),
          lastHopLink(compiled->lastHopLink()),
          firstHopCross(compiled->firstHopCross()),
          lastHopCross(compiled->lastHopCross())
    {
        if (!compiled->valid()) {
            firstError = compiled->error();
            return;
        }
        // A shared CompiledProgram binds routes to one topology; a
        // spec with different links would send every route to the
        // wrong machine. (Sessions built the classic way compile
        // against spec.topo itself, so this always passes for them.)
        if (!sameTopology(spec.topo, compiled->topo())) {
            firstError = "machine spec topology does not match the "
                         "compiled program's";
            return;
        }
        configOk = true;

        arena.build(spec, program, compiled->crossingsPerLink());
        links = arena.links();
        cells = arena.cells();

        // Register every route crossing in (message, hop) order — the
        // order CompiledProgram counted, so its first/last-hop
        // crossing indices match the lists built here.
        for (MessageId m = 0; m < program.numMessages(); ++m) {
            const Route& route = competing.route(m);
            for (int h = 0; h < route.numHops(); ++h) {
                LinkState& link = links[route.hops[h].link];
                link.addCrossing(m, route.hops[h].dir, h,
                                 program.messageLength(m));
                link.crossings().back().finalHop =
                    h + 1 == route.numHops();
            }
        }

        writeSeq.assign(program.numMessages(), 0);
        readSeq.assign(program.numMessages(), 0);

        eventMode = options.kernel == KernelKind::kEventDriven;

        linkDead.assign(links.size(), 0);
        cellDead.assign(cells.size(), 0);
        linkStallUntil.assign(links.size(), 0);

        cellWaitLink.assign(cells.size(), kInvalidLink);
        waiterHead.assign(links.size(), kInvalidCell);
        waiterNext.assign(cells.size(), kInvalidCell);
        fwdCount.assign(links.size(), 0);
        pendingCount.assign(links.size(), 0);
        recheckFlag.assign(links.size(), 0);
        activeCells.resize(static_cast<CellId>(cells.size()));
        fwdLinks.resize(static_cast<LinkIndex>(links.size()));
        pendingLinks.resize(static_cast<LinkIndex>(links.size()));
    }

    /**
     * The session's default labels: a SessionOptions override wins,
     * else the shared CompiledProgram's (lazy, computed at most once
     * per compiled program — not per session).
     */
    const std::vector<std::int64_t>&
    defaultLabels() const
    {
        if (!options.labels.empty())
            return options.labels;
        return compiled->labels();
    }

    /**
     * Labels this run sees: an explicit request override is always
     * honored; otherwise the session defaults, resolved only when the
     * run actually needs labels (compatible policies or the audit).
     * A label-free run reports no labels — regardless of what earlier
     * runs resolved — so identical requests always produce identical
     * results (and match the single-use simulator).
     */
    const std::vector<std::int64_t>&
    resolveLabels(const RunRequest& request, bool needed)
    {
        if (!request.labels.empty())
            return request.labels;
        if (!needed)
            return kNoLabels;
        return defaultLabels();
    }

    AssignmentPolicy&
    getPolicy(PolicyKind kind, const std::vector<std::int64_t>& labels,
              std::uint64_t seed)
    {
        CachedPolicy& slot = policyCache[static_cast<int>(kind)];
        if (!slot.policy || slot.labels != labels) {
            slot.policy = makePolicy(kind, labels, seed);
            slot.labels = labels;
        }
        slot.policy->resetRun(seed);
        return *slot.policy;
    }

    // -----------------------------------------------------------------
    // In-place reset: the compile-once/run-many core.
    // -----------------------------------------------------------------

    void
    resetRun()
    {
        clearFaultState();
        // Only routed links and program-bearing cells ever mutate, so
        // the reset is O(program activity), not O(machine) — the rest
        // of the array is still in its start-of-run state.
        for (LinkIndex l : routedLinksDesc)
            links[l].resetRun();
        for (CellId c : programCells)
            cells[c].resetRun();
        std::fill(writeSeq.begin(), writeSeq.end(), 0);
        std::fill(readSeq.begin(), readSeq.end(), 0);

        result.status = RunStatus::kConfigError;
        result.cycles = 0;
        result.error.clear();
        result.stats.resetRun(cells.size());
        result.deadlock = DeadlockReport{};
        result.events.clear();
        result.releases.clear();
        result.audit = AuditReport{};
        result.labelsUsed = *runLabels;
        // The result vectors were moved out to the previous caller;
        // reserve this session's high-water marks so collecting runs
        // stop reallocating on the reuse path.
        if (needEvents)
            result.events.reserve(hwEvents);
        if (collectReleases)
            result.releases.reserve(hwReleases);
        if (collectTiming)
            result.msgTiming.assign(program.numMessages(), {-1, -1});
        else
            result.msgTiming.clear();
        if (collectReceived) {
            result.received.resize(program.numMessages());
            for (MessageId m = 0; m < program.numMessages(); ++m) {
                result.received[m].clear();
                // A message delivers exactly messageLength words.
                result.received[m].reserve(
                    static_cast<std::size_t>(program.messageLength(m)));
            }
        } else {
            result.received.clear();
        }

        if (eventMode) {
            activeCells.clear();
            doneCells = 0;
            for (CellId c : programCells) {
                cellWaitLink[c] = kInvalidLink;
                waiterNext[c] = kInvalidCell;
            }
            for (LinkIndex l : routedLinksDesc) {
                waiterHead[l] = kInvalidCell;
                fwdCount[l] = 0;
                pendingCount[l] = 0;
                recheckFlag[l] = 0;
            }
            nextCycleWakes.clear();
            timedWakes.clear();
            fwdLinks.clear();
            pendingLinks.clear();
            recheckList.clear();
            queueEvents.clear();
            queueEventsHeaped = 0;
            queueEventCompactLimit = 64;
        }
    }

    // -----------------------------------------------------------------
    // Fault injection (see the fault-state section above for the
    // design). killLink/killCell/degradeQueue/stallLink mutate only
    // kernel-independent flags plus the event kernel's wake sets —
    // waking too much is always safe, so the dense kernel simply
    // ignores those calls.
    // -----------------------------------------------------------------

    /** Undo the previous run's fault effects; O(affected + plan). */
    void
    clearFaultState()
    {
        for (LinkIndex l : faultTouchedLinks) {
            linkDead[l] = 0;
            linkStallUntil[l] = 0;
        }
        for (CellId c : faultTouchedCells)
            cellDead[c] = 0;
        // Queues of routed links reset their clamp in HwQueue::reset();
        // this also covers degrades aimed at unrouted links.
        for (const auto& [l, q] : degradedQueues)
            links[l].queue(q).setCapacityLimit(0);
        faultTouchedLinks.clear();
        faultTouchedCells.clear();
        degradedQueues.clear();
        activeStalls.clear();
        faultCursor = 0;
    }

    /** Is the link currently unable to do anything at all? */
    bool
    linkUnusable(LinkIndex l, Cycle now) const
    {
        return linkDead[l] != 0 || linkStallUntil[l] > now;
    }

    void
    killLink(LinkIndex l)
    {
        if (linkDead[l])
            return;
        linkDead[l] = 1;
        faultTouchedLinks.push_back(l);
        // Cells blocked here re-step once and re-block with
        // kLinkDead, keeping deadlock snapshots identical to the
        // dense kernel's (which re-steps blocked cells every cycle).
        if (eventMode)
            wakeWaiters(l);
    }

    void
    killCell(CellId c)
    {
        if (!cellDead[c]) {
            cellDead[c] = 1;
            faultTouchedCells.push_back(c);
            // The cell never steps again; pin the snapshot reason now
            // (the dense kernel skips dead cells, so nothing would
            // otherwise update it).
            cells[c].lastBlock = BlockReason::kCellDead;
            if (eventMode) {
                removeWaiter(c);
                activeCells.erase(c);
            }
        }
        // A dead cell takes its links with it.
        for (CellId nbr : spec.topo.neighbors(c)) {
            if (auto l = spec.topo.linkBetween(c, nbr))
                killLink(*l);
        }
    }

    void
    degradeQueue(LinkIndex l, int qid, int cap)
    {
        // Track by membership, not by clamp-was-zero: on the
        // checkpoint-restore replay path the clamp arrives pre-set
        // from the arena pools, yet must still be registered so the
        // next clearFaultState() resets it (the queue may belong to
        // an unrouted link, which resetRun() never touches).
        HwQueue& q = links[l].queue(qid);
        bool tracked = false;
        for (const auto& [tl, tq] : degradedQueues) {
            if (tl == l && tq == qid) {
                tracked = true;
                break;
            }
        }
        if (!tracked)
            degradedQueues.push_back({l, qid});
        q.setCapacityLimit(cap);
        // A later degrade may *raise* the clamp back up: writers
        // blocked kQueueFull must get a fresh look.
        if (eventMode)
            wakeWaiters(l);
    }

    void
    stallLink(LinkIndex l, Cycle until)
    {
        if (linkStallUntil[l] == 0)
            faultTouchedLinks.push_back(l);
        if (until > linkStallUntil[l])
            linkStallUntil[l] = until;
        activeStalls.push_back({l, until});
        // Blocked cells re-report kLinkStalled (snapshot parity).
        if (eventMode)
            wakeWaiters(l);
    }

    /**
     * Apply every plan event due at @p now and expire finished stalls.
     * Called at the top of each executed cycle (and with now = 0
     * before policy setup), identically in both kernels. Fault cycles
     * are never skipped: the event kernel's fast-forward caps its
     * jumps at nextFaultCycle().
     */
    void
    applyFaultsDue(Cycle now)
    {
        if (!activeStalls.empty()) {
            std::size_t w = 0;
            for (const ActiveStall& s : activeStalls) {
                if (s.until <= now) {
                    // The link revives this cycle, before any phase.
                    if (eventMode && !linkDead[s.link]) {
                        wakeWaiters(s.link);
                        markRecheck(s.link);
                    }
                } else {
                    activeStalls[w++] = s;
                }
            }
            activeStalls.resize(w);
        }
        while (faults != nullptr && faultCursor < faults->size() &&
               faults->events()[faultCursor].cycle <= now) {
            const FaultEvent& e = faults->events()[faultCursor++];
            switch (e.kind) {
              case FaultKind::kKillLink:
                killLink(e.link);
                break;
              case FaultKind::kKillCell:
                killCell(e.cell);
                break;
              case FaultKind::kDegradeQueue:
                degradeQueue(e.link, e.queue, e.arg);
                break;
              case FaultKind::kStallLink:
                // Anchored to the event's cycle (== now on the live
                // path; may be < now only during checkpoint replay).
                stallLink(e.link, e.cycle + e.arg);
                break;
            }
        }
    }

    /**
     * Will future fault activity still change the machine? While true
     * a zero-progress cycle is not terminal: pending plan events will
     * mutate hardware, and an unexpired stall revives its link. After
     * applyFaultsDue(now) every surviving stall has until > now.
     */
    bool
    faultEventPending() const
    {
        if (!faultsActive)
            return false;
        return (faults != nullptr && faultCursor < faults->size()) ||
               !activeStalls.empty();
    }

    /** Earliest future cycle a plan event applies or a stall expires
     *  (-1 when neither is pending). Caps fast-forward jumps. */
    Cycle
    nextFaultCycle() const
    {
        Cycle next = -1;
        if (faults != nullptr && faultCursor < faults->size())
            next = faults->events()[faultCursor].cycle;
        for (const ActiveStall& s : activeStalls) {
            if (next < 0 || s.until < next)
                next = s.until;
        }
        return next;
    }

    /** Crossings on @p l whose message has not fully passed it. */
    int
    unfinishedCrossings(LinkIndex l) const
    {
        int open = 0;
        for (const Crossing& c : links[l].crossings()) {
            if (c.phase != CrossingPhase::kDone)
                ++open;
        }
        return open;
    }

    /**
     * Decide kDeadlocked vs kFaulted at a terminal stall and fill the
     * report's fault attribution: an applied event is implicated when
     * the frozen state still shows work it holds hostage. The rules
     * are deliberately liberal heuristics (a dead link with any
     * unfinished crossing is implicated even if that traffic would
     * have deadlocked anyway) — attribution names suspects, it does
     * not prove causality. All inputs are kernel-independent machine
     * state, so both kernels attribute identically. Expired stalls
     * are never implicated: terminality already implies every stall
     * ran out.
     */
    void
    attributeFaults(DeadlockReport& report)
    {
        if (faults == nullptr)
            return;
        const std::vector<FaultEvent>& evs = faults->events();
        const int physicalCap =
            spec.queueCapacity + spec.extensionCapacity;
        for (std::size_t i = 0; i < faultCursor; ++i) {
            const FaultEvent& e = evs[i];
            std::string why;
            switch (e.kind) {
              case FaultKind::kKillLink: {
                int open = unfinishedCrossings(e.link);
                if (open > 0)
                    why = std::to_string(open) +
                          " unfinished crossing(s) on the dead link";
                break;
              }
              case FaultKind::kKillCell: {
                if (!cells[e.cell].done()) {
                    why = "cell froze with unfinished program (pc " +
                          std::to_string(cells[e.cell].pc()) + ")";
                    break;
                }
                int open = 0;
                for (CellId nbr : spec.topo.neighbors(e.cell)) {
                    if (auto l = spec.topo.linkBetween(e.cell, nbr))
                        open += unfinishedCrossings(*l);
                }
                if (open > 0)
                    why = std::to_string(open) +
                          " unfinished crossing(s) on its dead links";
                break;
              }
              case FaultKind::kDegradeQueue: {
                const HwQueue& q = links[e.link].queue(e.queue);
                if (q.capacityLimit() > 0 &&
                    q.capacityLimit() < physicalCap &&
                    unfinishedCrossings(e.link) > 0)
                    why = "capacity clamped to " +
                          std::to_string(q.capacityLimit()) + " of " +
                          std::to_string(physicalCap) +
                          " with unfinished crossings on the link";
                break;
              }
              case FaultKind::kStallLink:
                break;
            }
            if (!why.empty())
                report.faults.push_back(
                    {static_cast<int>(i), e.describe(), std::move(why)});
        }
        if (!report.faults.empty())
            result.status = RunStatus::kFaulted;
    }

    /**
     * Rebuild the fault-derived flags for a run paused at
     * @p pauseCycle by replaying the plan's due events — the
     * restore/adopt path. Event-kernel side effects (wakes, active-set
     * erases) land on state rebuildEventState() redoes afterwards.
     */
    void
    reapplyFaultsThrough(Cycle pauseCycle)
    {
        applyFaultsDue(pauseCycle);
        // Expired stalls owe no wake (every cell wakes on rebuild).
        activeStalls.erase(
            std::remove_if(activeStalls.begin(), activeStalls.end(),
                           [&](const ActiveStall& s) {
                               return s.until <= pauseCycle;
                           }),
            activeStalls.end());
    }

    // -----------------------------------------------------------------
    // Event hooks. Every queue/crossing mutation funnels through one
    // of these so the active sets stay exact. All are no-ops for the
    // reference kernel.
    // -----------------------------------------------------------------

    void
    wakeCell(CellId cell)
    {
        // A dead cell never re-enters the active set: stale entries in
        // the timed-wake buffers or waiter lists must not revive it.
        if (!cells[cell].done() && !cellDead[cell])
            activeCells.insert(cell);
    }

    void
    wakeWaiters(LinkIndex l)
    {
        for (CellId c = waiterHead[l]; c != kInvalidCell;
             c = waiterNext[c])
            wakeCell(c);
    }

    void
    markRecheck(LinkIndex l)
    {
        if (!recheckFlag[l]) {
            recheckFlag[l] = 1;
            recheckList.push_back(l);
        }
    }

    void
    onRequest(LinkIndex l)
    {
        if (!eventMode)
            return;
        if (pendingCount[l]++ == 0)
            pendingLinks.insert(l);
        // A request cannot unblock a cell, but it changes the block
        // *reason* a waiting reader would report (kIdle ->
        // kRequested); wake it so deadlock snapshots stay identical
        // to the dense kernel's.
        wakeWaiters(l);
    }

    /**
     * A queue's front word changed (push into empty, or pop exposing
     * the next word): record when the new front matures. Every
     * non-empty queue has a live heap entry, which is what makes the
     * heap-based timed-event check exact.
     */
    void
    scheduleQueueEvent(const LinkState& link, const HwQueue& q)
    {
        queueEvents.push_back(
            {q.frontReadyCycle(), link.index(), q.id()});
        if (queueEvents.size() > queueEventCompactLimit)
            compactQueueEvents();
    }

    /** Restore the heap property over the appended tail. */
    void
    ensureQueueEventHeap()
    {
        std::size_t tail = queueEvents.size() - queueEventsHeaped;
        if (tail == 0)
            return;
        if (tail <= 64) {
            // A short tail is cheaper to sift in one by one than to
            // re-heapify everything.
            while (queueEventsHeaped < queueEvents.size()) {
                ++queueEventsHeaped;
                std::push_heap(queueEvents.begin(),
                               queueEvents.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       queueEventsHeaped),
                               laterReady);
            }
        } else {
            std::make_heap(queueEvents.begin(), queueEvents.end(),
                           laterReady);
            queueEventsHeaped = queueEvents.size();
        }
    }

    static bool
    laterReady(const QueueTimedEvent& a, const QueueTimedEvent& b)
    {
        return a.ready > b.ready; // min-heap on ready cycle
    }

    bool
    queueEventLive(const QueueTimedEvent& e) const
    {
        const HwQueue& q =
            links[e.link].queues()[static_cast<std::size_t>(e.queue)];
        return !q.empty() && q.frontReadyCycle() == e.ready;
    }

    /**
     * Drop stale entries in bulk so the heap stays proportional to
     * the number of in-flight queue fronts, not to the total words a
     * long run ever forwarded. Amortized O(1) per scheduled event.
     */
    void
    compactQueueEvents()
    {
        queueEvents.erase(
            std::remove_if(queueEvents.begin(), queueEvents.end(),
                           [this](const QueueTimedEvent& e) {
                               return !queueEventLive(e);
                           }),
            queueEvents.end());
        // The survivors are in arbitrary order now; re-heapify on the
        // next query.
        queueEventsHeaped = 0;
        queueEventCompactLimit =
            std::max<std::size_t>(64, 2 * queueEvents.size());
    }

    /** After a queue push left @p q non-empty for the first time. */
    void
    onPush(LinkState& link, const HwQueue& q)
    {
        if (!eventMode)
            return;
        LinkIndex l = link.index();
        if (q.size() == 1) {
            scheduleQueueEvent(link, q);
            if (!q.finalHop()) {
                if (fwdCount[l]++ == 0)
                    fwdLinks.insert(l);
            }
        }
        wakeWaiters(l);
    }

    /** After a pop (queue still assigned to the popped message). */
    void
    onPop(LinkState& link, const HwQueue& q)
    {
        if (!eventMode)
            return;
        LinkIndex l = link.index();
        if (q.empty()) {
            if (!q.finalHop()) {
                if (--fwdCount[l] == 0)
                    fwdLinks.erase(l);
            }
        } else {
            scheduleQueueEvent(link, q); // a new word surfaced
        }
        wakeWaiters(l);
    }

    void
    onAssignDecision(LinkState& link, MessageId msg)
    {
        if (!eventMode)
            return;
        LinkIndex l = link.index();
        // A message assigned straight from kIdle (eager reservation)
        // never held a pending request.
        if (link.crossing(msg).requestedAt >= 0) {
            if (--pendingCount[l] == 0)
                pendingLinks.erase(l);
        }
        markRecheck(l);
        wakeWaiters(l);
    }

    void
    onRelease(LinkIndex l)
    {
        if (!eventMode)
            return;
        markRecheck(l);
        wakeWaiters(l);
    }

    // -----------------------------------------------------------------
    // Shared phase pieces
    // -----------------------------------------------------------------

    /** Record a policy decision batch as events + stats. */
    std::int64_t
    applyDecisions(LinkState& link,
                   const std::vector<AssignmentDecision>& decisions,
                   Cycle now)
    {
        for (const AssignmentDecision& d : decisions) {
            const Crossing& c = link.crossing(d.msg);
            if (needEvents || observer != nullptr) {
                AssignmentEvent ev;
                ev.cycle = now;
                ev.link = link.index();
                ev.msg = d.msg;
                ev.queueId = d.queueId;
                ev.dir = c.dir;
                if (needEvents)
                    result.events.push_back(ev);
                if (observer != nullptr)
                    observer->onAssign(ev);
            }
            ++result.stats.assignments;
            if (c.requestedAt >= 0)
                result.stats.requestWaitCycles += now - c.requestedAt;
            onAssignDecision(link, d.msg);
        }
        return static_cast<std::int64_t>(decisions.size());
    }

    /** Release a finished message's queue, keeping the event log. */
    void
    releaseMsg(LinkState& link, MessageId msg, Cycle now)
    {
        if (collectReleases || observer != nullptr) {
            AssignmentEvent ev;
            ev.cycle = now;
            ev.link = link.index();
            ev.msg = msg;
            ev.queueId = link.crossing(msg).queueId;
            ev.dir = link.crossing(msg).dir;
            if (collectReleases)
                result.releases.push_back(ev);
            if (observer != nullptr)
                observer->onRelease(ev);
        }
        link.finishMsg(msg, now);
        ++result.stats.releases;
        onRelease(link.index());
    }

    std::int64_t
    tickLink(LinkState& link, Cycle now)
    {
        // A dead or stalled link makes no decisions. Skipping the
        // whole tick (rather than emitting empty decisions) keeps the
        // policy's counted RNG streams aligned across kernels: neither
        // kernel draws for this link while it is down.
        if (faultsActive && linkUnusable(link.index(), now))
            return 0;
        decisionScratch.clear();
        policy->tick(link, now, decisionScratch);
        return applyDecisions(link, decisionScratch, now);
    }

    /** Move one link's in-flight words a hop; request next-hop queues. */
    std::int64_t
    forwardOneLink(LinkState& link, Cycle now)
    {
        if (faultsActive && linkUnusable(link.index(), now))
            return 0;
        std::int64_t progress = 0;
        for (HwQueue& q : link.queues()) {
            if (q.isFree() || q.empty())
                continue;
            if (q.finalHop())
                continue; // final hop: the receiver pops it
            MessageId msg = q.assignedMsg();
            const Crossing& c = link.crossing(msg);
            const Route& route = competing.route(msg);
            const Hop& next_hop = route.hops[c.hopIndex + 1];
            LinkState& next_link = links[next_hop.link];
            // No requests to and no pushes into a downed next hop.
            if (faultsActive && linkUnusable(next_link.index(), now))
                continue;
            Crossing& nc = next_link.crossing(msg);
            if (nc.phase == CrossingPhase::kIdle) {
                // The message header arrived at the intermediate
                // cell: ask for the next queue (section 5).
                next_link.request(msg, now);
                onRequest(next_link.index());
                ++result.stats.requests;
                ++progress;
                continue;
            }
            if (nc.phase != CrossingPhase::kAssigned)
                continue;
            if (!q.canPop(now))
                continue;
            HwQueue& nq = next_link.queue(nc.queueId);
            if (!nq.canPush(now))
                continue;
            Word w = q.pop(now);
            onPop(link, q);
            nq.push(w, now);
            onPush(next_link, nq);
            ++result.stats.wordsForwarded;
            ++progress;
            if (q.wordsRemaining() == 0) {
                releaseMsg(link, msg, now);
                ++progress;
            }
        }
        return progress;
    }

    std::int64_t
    executeWrite(CellRuntime& cell, const Op& op, Cycle now)
    {
        std::int64_t progress = 0;

        // Memory-to-memory model: stage the word through local memory
        // before it may enter the output queue (2 accesses).
        if (options.memoryToMemory) {
            if (cell.stallRemaining() < 0) {
                cell.setStallRemaining(2 * options.memAccessCost);
                result.stats.memAccesses += 2;
            }
            if (cell.stallRemaining() > 0) {
                cell.setStallRemaining(cell.stallRemaining() - 1);
                ++result.stats.memStallCycles;
                cell.lastBlock = BlockReason::kMemoryStall;
                return 1;
            }
        }

        LinkState& link = links[firstHopLink[op.msg]];
        if (faultsActive && linkUnusable(link.index(), now)) {
            cell.lastBlock = linkDead[link.index()]
                                 ? BlockReason::kLinkDead
                                 : BlockReason::kLinkStalled;
            blockLink = link.index();
            return 0;
        }
        Crossing& c = link.crossings()[firstHopCross[op.msg]];
        if (c.phase == CrossingPhase::kIdle) {
            link.request(op.msg, now);
            onRequest(link.index());
            ++result.stats.requests;
            cell.lastBlock = BlockReason::kQueueNotAssigned;
            return 1;
        }
        if (c.phase != CrossingPhase::kAssigned) {
            cell.lastBlock = BlockReason::kQueueNotAssigned;
            blockLink = link.index();
            return 0;
        }
        HwQueue& q = link.queue(c.queueId);
        if (!q.canPush(now)) {
            cell.lastBlock = BlockReason::kQueueFull;
            blockLink = link.index();
            return 0;
        }
        Word w;
        w.msg = op.msg;
        w.seq = writeSeq[op.msg]++;
        w.value = cell.takeWriteValue();
        if (collectTiming && w.seq == 0)
            result.msgTiming[op.msg].first = now;
        q.push(w, now);
        onPush(link, q);
        ++result.stats.opsExecuted;
        ++progress;
        cell.advance();
        return progress;
    }

    std::int64_t
    executeRead(CellRuntime& cell, const Op& op, Cycle now)
    {
        // Memory-to-memory model, phase 2: after the word left the
        // queue it must pass through local memory (2 accesses).
        if (options.memoryToMemory && cell.readCompleted()) {
            if (cell.stallRemaining() > 0) {
                cell.setStallRemaining(cell.stallRemaining() - 1);
                ++result.stats.memStallCycles;
                cell.lastBlock = BlockReason::kMemoryStall;
                return 1;
            }
            ++result.stats.opsExecuted;
            cell.advance();
            return 1;
        }

        LinkState& link = links[lastHopLink[op.msg]];
        // Even reads drain through the final-hop queue's read port;
        // a downed link blocks them too.
        if (faultsActive && linkUnusable(link.index(), now)) {
            cell.lastBlock = linkDead[link.index()]
                                 ? BlockReason::kLinkDead
                                 : BlockReason::kLinkStalled;
            blockLink = link.index();
            return 0;
        }
        Crossing& c = link.crossings()[lastHopCross[op.msg]];
        if (c.phase != CrossingPhase::kAssigned) {
            cell.lastBlock = c.phase == CrossingPhase::kRequested
                                 ? BlockReason::kQueueNotAssigned
                                 : BlockReason::kWordNotArrived;
            blockLink = link.index();
            return 0;
        }
        HwQueue& q = link.queue(c.queueId);
        if (!q.canPop(now)) {
            cell.lastBlock = BlockReason::kWordNotArrived;
            blockLink = link.index();
            // The front word (if any) becomes consumable by time
            // alone; schedule the wake-up.
            if (!q.empty())
                blockTimedWake = std::max(q.frontReadyCycle(), now + 1);
            return 0;
        }
        Word w = q.pop(now);
        onPop(link, q);
        assert(w.msg == op.msg);
        assert(w.seq == readSeq[op.msg] && "words arrive in order");
        int seq = readSeq[op.msg]++;
        cell.recordRead(w.value);
        if (collectReceived)
            result.received[op.msg].push_back(w.value);
        if (observer != nullptr)
            observer->onDeliver(op.msg, seq, w.value, now);
        ++result.stats.wordsDelivered;
        if (collectTiming &&
            readSeq[op.msg] == program.messageLength(op.msg))
            result.msgTiming[op.msg].second = now;
        std::int64_t progress = 1;
        if (q.wordsRemaining() == 0) {
            releaseMsg(link, op.msg, now);
            ++progress;
        }
        if (options.memoryToMemory) {
            cell.setReadCompleted(true);
            cell.setStallRemaining(2 * options.memAccessCost);
            result.stats.memAccesses += 2;
            return progress;
        }
        ++result.stats.opsExecuted;
        cell.advance();
        return progress;
    }

    /** One cell's attempt to execute its current op this cycle. */
    std::int64_t
    cellStep(CellRuntime& cell, Cycle now)
    {
        cell.setNow(now);
        cell.lastBlock = BlockReason::kNone;
        const Op& op = cell.currentOp();
        switch (op.kind) {
          case OpKind::kCompute: {
            const ComputeFn& fn = program.computeFn(op.computeId);
            if (fn)
                fn(cell);
            ++result.stats.opsExecuted;
            ++result.stats.computeOps;
            cell.advance();
            return 1;
          }
          case OpKind::kWrite:
            return executeWrite(cell, op, now);
          case OpKind::kRead:
            return executeRead(cell, op, now);
        }
        return 0;
    }

    bool
    allDone() const
    {
        for (const CellRuntime& cell : cells) {
            if (!cell.done())
                return false;
        }
        return true;
    }

    DeadlockReport
    snapshot(Cycle now) const
    {
        DeadlockReport report;
        report.deadlocked = true;
        report.atCycle = now;
        for (const CellRuntime& cell : cells) {
            if (cell.done())
                continue;
            CellBlockInfo info;
            info.cell = cell.cellId();
            info.pc = cell.pc();
            info.op = opText(program, cell.currentOp());
            info.reason = blockReasonName(cell.lastBlock);
            report.cells.push_back(std::move(info));
        }
        for (const LinkState& link : links) {
            LinkSnapshot snap;
            snap.link = link.index();
            snap.a = spec.topo.link(link.index()).a;
            snap.b = spec.topo.link(link.index()).b;
            for (const HwQueue& q : link.queues()) {
                QueueSnapshot qs;
                qs.id = q.id();
                qs.msg = q.isFree() ? "-"
                                    : program.message(q.assignedMsg()).name;
                qs.occupancy = q.size();
                qs.capacity = q.totalCapacity();
                snap.queues.push_back(std::move(qs));
            }
            for (const Crossing& c : link.crossings()) {
                if (c.phase == CrossingPhase::kRequested)
                    snap.waiting.push_back(program.message(c.msg).name);
            }
            report.links.push_back(std::move(snap));
        }
        return report;
    }

    /**
     * Settle every routed queue through the run's current cycle and
     * add the (cumulative-since-run-start) totals into @p into. The
     * final result and every pause snapshot go through this; settling
     * early is safe — the lazy stats just continue from the settled
     * point when the run resumes.
     */
    void
    accumulateQueueStats(SimStats& into)
    {
        // Unrouted links' queues are never assigned: every contribution
        // from them is zero, so only routed links need settling.
        for (LinkIndex l : routedLinksDesc) {
            for (HwQueue& q : links[l].queues()) {
                q.settleStats(result.cycles);
                into.queueBusyCycles += q.busyCycles();
                into.queueOccupancySum += q.occupancySum();
                into.extendedWords += q.extendedWords();
            }
        }
    }

    // -----------------------------------------------------------------
    // Reference kernel: dense per-cycle scans (the oracle).
    // -----------------------------------------------------------------

    std::int64_t
    assignmentPhaseDense(Cycle now)
    {
        std::int64_t progress = 0;
        for (LinkState& link : links)
            progress += tickLink(link, now);
        return progress;
    }

    std::int64_t
    forwardingPhaseDense(Cycle now)
    {
        std::int64_t progress = 0;
        for (LinkIndex l : routedLinksDesc)
            progress += forwardOneLink(links[l], now);
        return progress;
    }

    std::int64_t
    cellPhaseDense(Cycle now)
    {
        std::int64_t progress = 0;
        for (CellRuntime& cell : cells) {
            if (cell.done())
                continue;
            // A dead cell never steps; it just accrues blocked time
            // (its lastBlock was pinned to kCellDead at kill time).
            if (faultsActive && cellDead[cell.cellId()]) {
                ++result.stats.cellBlockedCycles;
                ++result.stats.perCellBlocked[cell.cellId()];
                continue;
            }
            std::int64_t delta = cellStep(cell, now);
            if (delta == 0) {
                ++result.stats.cellBlockedCycles;
                ++result.stats.perCellBlocked[cell.cellId()];
            }
            progress += delta;
        }
        return progress;
    }

    bool
    timedEventPendingDense(Cycle now) const
    {
        for (const LinkState& link : links) {
            for (const HwQueue& q : link.queues()) {
                if (q.pendingTimedEvent(now))
                    return true;
            }
        }
        return false;
    }

    void
    runReference(Cycle from)
    {
        for (Cycle now = from; now <= maxCycles; ++now) {
            if (faultsActive)
                applyFaultsDue(now);
            std::int64_t progress = 0;
            progress += assignmentPhaseDense(now);
            progress += forwardingPhaseDense(now);
            progress += cellPhaseDense(now);

            if (allDone()) {
                result.status = RunStatus::kCompleted;
                result.cycles = now;
                break;
            }
            if (progress == 0 && !timedEventPendingDense(now) &&
                !faultEventPending()) {
                result.status = RunStatus::kDeadlocked;
                result.cycles = now;
                result.deadlock = snapshot(now);
                if (faultsActive)
                    attributeFaults(result.deadlock);
                break;
            }
            if (now == maxCycles) {
                result.status = RunStatus::kMaxCycles;
                result.cycles = now;
                break;
            }
            // Pause checks come after every terminal check so that a
            // pause target landing on the final cycle still reports
            // the terminal status, identically to an unpaused run.
            if (pauseTarget > 0 && now >= pauseTarget) {
                result.status = RunStatus::kPaused;
                result.cycles = now;
                break;
            }
        }
    }

    // -----------------------------------------------------------------
    // Event-driven kernel
    // -----------------------------------------------------------------

    void
    initActiveState()
    {
        // Empty-program cells are born done; cells with ops are not.
        doneCells = static_cast<int>(cells.size() - programCells.size());
        for (CellId c : programCells)
            activeCells.insert(c); // ascending: each insert is at the end
        // Cycle 1 must give the policy a first look at every link a
        // message crosses (eager reservation acts with no requests).
        for (LinkIndex l : routedLinksDesc)
            markRecheck(l);
    }

    void
    removeWaiter(CellId cell)
    {
        LinkIndex l = cellWaitLink[cell];
        if (l == kInvalidLink)
            return;
        // Unlink from the (short) intrusive waiter list.
        CellId* slot = &waiterHead[l];
        while (*slot != cell)
            slot = &waiterNext[*slot];
        *slot = waiterNext[cell];
        waiterNext[cell] = kInvalidCell;
        cellWaitLink[cell] = kInvalidLink;
    }

    void
    registerWait(CellId cell, LinkIndex link, Cycle timed, Cycle now)
    {
        if (cellWaitLink[cell] != link) {
            removeWaiter(cell);
            if (link != kInvalidLink) {
                cellWaitLink[cell] = link;
                waiterNext[cell] = waiterHead[link];
                waiterHead[link] = cell;
            }
        }
        if (timed == now + 1) {
            nextCycleWakes.push_back(cell); // the common case: O(1)
        } else if (timed >= 0) {
            timedWakes.emplace_back(timed, cell);
            std::push_heap(timedWakes.begin(), timedWakes.end(),
                           std::greater<std::pair<Cycle, CellId>>());
        }
    }

    std::int64_t
    assignmentPhaseEvent(Cycle now)
    {
        tickScratch.clear();
        for (LinkIndex l = pendingLinks.firstAtLeast(0);
             l != kInvalidLink; l = pendingLinks.firstAtLeast(l + 1))
            tickScratch.push_back(l);
        for (LinkIndex l : recheckList) {
            recheckFlag[l] = 0;
            tickScratch.push_back(l);
        }
        recheckList.clear();
        std::sort(tickScratch.begin(), tickScratch.end());
        tickScratch.erase(
            std::unique(tickScratch.begin(), tickScratch.end()),
            tickScratch.end());
        std::int64_t progress = 0;
        for (LinkIndex l : tickScratch)
            progress += tickLink(links[l], now);
        return progress;
    }

    std::int64_t
    forwardingPhaseEvent(Cycle now)
    {
        // Descending cursor over the hot links, re-sought each step:
        // forwardOneLink both erases drained links and inserts
        // newly-hot downstream links. A new link below the cursor is
        // picked up later this same phase — exactly like the dense
        // kernel's single descending scan, which also still visits
        // links made non-empty mid-scan. Links at or above the cursor
        // were already processed and stay untouched until next cycle.
        std::int64_t progress = 0;
        LinkIndex cursor = fwdLinks.largest();
        while (cursor != kInvalidLink) {
            progress += forwardOneLink(links[cursor], now);
            cursor = fwdLinks.largestBelow(cursor);
        }
        return progress;
    }

    std::int64_t
    cellPhaseEvent(Cycle now)
    {
        // Wakes bucketed for "the next executed cycle" — which is
        // exactly this one: a non-empty bucket pins the fast-forward
        // target to now, so no jump can overshoot it. Swap first:
        // cells re-blocking during the scan refill the bucket for the
        // *next* cycle.
        wakeScratch.swap(nextCycleWakes);
        for (CellId c : wakeScratch)
            wakeCell(c);
        wakeScratch.clear();
        while (!timedWakes.empty() && timedWakes.front().first <= now) {
            CellId c = timedWakes.front().second;
            std::pop_heap(timedWakes.begin(), timedWakes.end(),
                          std::greater<std::pair<Cycle, CellId>>());
            timedWakes.pop_back();
            wakeCell(c);
        }
        // Ascending cursor, re-sought by value each step: erasing the
        // current cell or inserting woken cells mid-scan behaves
        // exactly like std::set iteration did (inserts ahead of the
        // cursor are visited this phase, inserts behind it are not).
        std::int64_t progress = 0;
        CellId id = activeCells.firstAtLeast(0);
        while (id != kInvalidCell) {
            CellRuntime& cell = cells[id];
            // Settle the blocked span the dense kernel would have
            // accumulated while this cell slept.
            Cycle span = (now - 1) - cell.lastVisitCycle;
            if (span > 0) {
                result.stats.cellBlockedCycles += span;
                result.stats.perCellBlocked[id] += span;
            }
            cell.lastVisitCycle = now;
            // A cell killed while in the active set (or woken by a
            // stale timed wake) is charged like the dense kernel's
            // skip and put back to sleep forever.
            if (faultsActive && cellDead[id]) {
                ++result.stats.cellBlockedCycles;
                ++result.stats.perCellBlocked[id];
                removeWaiter(id);
                activeCells.erase(id);
                id = activeCells.firstAtLeast(id + 1);
                continue;
            }
            blockLink = kInvalidLink;
            blockTimedWake = -1;
            std::int64_t delta = cellStep(cell, now);
            progress += delta;
            if (cell.done()) {
                ++doneCells;
                removeWaiter(id);
                activeCells.erase(id);
            } else if (delta == 0) {
                ++result.stats.cellBlockedCycles;
                ++result.stats.perCellBlocked[id];
                if (blockLink != kInvalidLink) {
                    registerWait(id, blockLink, blockTimedWake, now);
                    activeCells.erase(id);
                }
                // else: no known wake condition — stay active (never
                // sleep without one; costs cycles, not answers).
            }
            else {
                removeWaiter(id);
            }
            id = activeCells.firstAtLeast(id + 1);
        }
        return progress;
    }

    /**
     * Pop heap entries that are stale (their front was popped or
     * replaced) or already mature (the queue is consumable at @p now
     * — not a *timed* event). Only called at zero-progress cycles, so
     * no queue was pushed or popped at @p now: for every non-empty
     * queue the front's maturity is exactly frontReadyCycle(), and
     * after pruning the heap top is the earliest live timed event.
     */
    void
    pruneQueueEvents(Cycle now)
    {
        ensureQueueEventHeap();
        while (!queueEvents.empty()) {
            const QueueTimedEvent& top = queueEvents.front();
            if (top.ready > now && queueEventLive(top))
                break;
            std::pop_heap(queueEvents.begin(), queueEvents.end(),
                          laterReady);
            queueEvents.pop_back();
            --queueEventsHeaped;
        }
    }

    bool
    timedEventPendingEvent(Cycle now)
    {
        pruneQueueEvents(now);
        return !queueEvents.empty();
    }

    /**
     * True when cycles after a zero-progress cycle may be skipped
     * wholesale: no cell is runnable and no policy re-tick is queued.
     * Pending-request links need no special case for any policy —
     * a tick that could change link state always makes progress (so
     * its cycle is never skipped), and RandomPolicy's per-link
     * counted streams draw nothing on ticks that cannot assign, so
     * skipped idle cycles cannot desynchronize its shuffles.
     */
    bool
    canFastForward() const
    {
        return activeCells.empty() && recheckList.empty();
    }

    /** Earliest future cycle any queue front or cell wake matures. */
    Cycle
    nextInterestingCycle(Cycle now)
    {
        if (!nextCycleWakes.empty())
            return now + 1; // a wake is due immediately: no jump
        Cycle next = -1;
        if (!timedWakes.empty())
            next = timedWakes.front().first;
        pruneQueueEvents(now);
        if (!queueEvents.empty()) {
            Cycle ready = queueEvents.front().ready; // > now, live
            if (next < 0 || ready < next)
                next = ready;
        }
        return next < 0 ? now + 1 : std::max(next, now + 1);
    }

    void
    runEventDriven(Cycle from)
    {
        for (Cycle now = from; now <= maxCycles; ++now) {
            if (faultsActive)
                applyFaultsDue(now);
            std::int64_t progress = 0;
            progress += assignmentPhaseEvent(now);
            progress += forwardingPhaseEvent(now);
            progress += cellPhaseEvent(now);

            if (doneCells == static_cast<int>(cells.size())) {
                result.status = RunStatus::kCompleted;
                result.cycles = now;
                break;
            }
            if (progress == 0 && !timedEventPendingEvent(now) &&
                !faultEventPending()) {
                result.status = RunStatus::kDeadlocked;
                result.cycles = now;
                result.deadlock = snapshot(now);
                if (faultsActive)
                    attributeFaults(result.deadlock);
                break;
            }
            if (now == maxCycles) {
                result.status = RunStatus::kMaxCycles;
                result.cycles = now;
                break;
            }
            // After the terminal checks, like the dense kernel: a
            // pause target on the final cycle reports the terminal
            // status.
            if (pauseTarget > 0 && now >= pauseTarget) {
                result.status = RunStatus::kPaused;
                result.cycles = now;
                break;
            }
            if (progress == 0 && canFastForward()) {
                // Bulk-advance: everything is waiting on queue
                // timing; jump straight to the first cycle where a
                // front word matures. The skipped cycles are provably
                // inert, and the lazy queue/cell accounting charges
                // their spans exactly as the dense kernel would. A
                // pending pause target caps the jump: the machine
                // state at the pause cycle equals the state at `now`
                // (the skipped stretch is inert), so pausing inside
                // it is exact.
                Cycle next = nextInterestingCycle(now);
                // Fault cycles are interesting too: a plan event or
                // stall expiry mutates hardware, so the jump must land
                // on (not past) it.
                if (faultsActive) {
                    Cycle fc = nextFaultCycle();
                    if (fc > now && fc < next)
                        next = fc;
                }
                Cycle cap = maxCycles;
                if (pauseTarget > 0 && pauseTarget < cap)
                    cap = pauseTarget;
                if (next > now + 1)
                    now = std::min(next, cap) - 1;
            }
        }
        // Charge sleeping cells the blocked cycles the dense kernel
        // would have accumulated through the final cycle. (A pause is
        // not the final cycle: the pause snapshot settles these spans
        // into its own copy and the run continues lazily.)
        if (result.status != RunStatus::kCompleted &&
            result.status != RunStatus::kPaused)
            chargeLazyBlockedSpans(result.cycles, result.stats);
    }

    /**
     * Dense-normalize the event kernel's lazy blocked-cycle
     * accounting: add, for every live cell, the span it has slept
     * since its last visit — [lastVisitCycle+1, through] — into
     * @p into, exactly what the dense kernel accumulates one cycle
     * at a time. Visit cursors are left untouched: the end-of-run
     * and pause-snapshot callers keep accumulating lazily, and
     * adoptFrom moves the cursors itself after charging.
     */
    void
    chargeLazyBlockedSpans(Cycle through, SimStats& into)
    {
        for (CellId c : programCells) {
            const CellRuntime& cell = cells[c];
            if (cell.done())
                continue;
            Cycle span = through - cell.lastVisitCycle;
            if (span > 0) {
                into.cellBlockedCycles += span;
                into.perCellBlocked[c] += span;
            }
        }
    }

    // -----------------------------------------------------------------

    RunResult
    run(const RunRequest& request)
    {
        ++runs;
        isPaused = false; // a new run abandons any paused one
        if (!configOk) {
            RunResult bad;
            bad.status = RunStatus::kConfigError;
            bad.error = firstError;
            return bad;
        }

        if (request.faults != nullptr) {
            std::string ferr =
                request.faults->validate(spec.topo, spec);
            if (!ferr.empty()) {
                RunResult bad;
                bad.status = RunStatus::kConfigError;
                bad.error = "invalid fault plan: " + ferr;
                return bad;
            }
        }

        doAudit = collects(request.collect, Collect::kAudit);
        runLabels = &resolveLabels(request, runNeedsLabels(request));
        policy = &getPolicy(request.policy, *runLabels, request.seed);
        adoptedPolicy.reset();
        observer = request.observer;
        maxCycles = request.maxCycles;
        pauseTarget = request.pauseAt;
        collectEvents = collects(request.collect, Collect::kEvents);
        needEvents = collectEvents || doAudit;
        collectReleases = collects(request.collect, Collect::kReleases);
        collectTiming = collects(request.collect, Collect::kMsgTiming);
        collectReceived = collects(request.collect, Collect::kReceived);
        faults = request.faults;
        faultsActive = faults != nullptr && !faults->empty();

        resetRun();

        if (eventMode)
            initActiveState();

        // Cycle-0 faults land before policy setup. initLink below
        // still runs on dead links — once, identically in both
        // kernels, so determinism holds — only the per-cycle tickLink
        // path is gated.
        if (faultsActive)
            applyFaultsDue(0);

        // Cycle 0: policy setup (static assignment happens here).
        // Unrouted links have no crossings, so initLink is a no-op on
        // them for every policy; only routed links get the call — in
        // ascending link order, matching the original all-links scan,
        // so cycle-0 assignment events keep their historical order.
        for (auto it = routedLinksDesc.rbegin();
             it != routedLinksDesc.rend(); ++it) {
            LinkState& link = links[*it];
            decisionScratch.clear();
            if (!policy->initLink(link, decisionScratch)) {
                result.status = RunStatus::kConfigError;
                result.error = "policy '" + policy->name() +
                               "' cannot set up link " +
                               std::to_string(link.index()) +
                               " (not enough queues?)";
                // Earlier links may have logged cycle-0 assignment
                // events for the audit; honor the opt-in contract on
                // this exit too.
                if (!collectEvents)
                    result.events.clear();
                return std::move(result);
            }
            applyDecisions(link, decisionScratch, 0);
        }

        resumeFrom = 1;
        return execute();
    }

    /** Run the configured segment; finish or snapshot-and-pause. */
    RunResult
    execute()
    {
        if (eventMode)
            runEventDriven(resumeFrom);
        else
            runReference(resumeFrom);

        if (result.status == RunStatus::kPaused)
            return pauseSnapshot();
        return finish();
    }

    /** Terminal-status tail: settle, audit, move the result out. */
    RunResult
    finish()
    {
        isPaused = false;
        result.stats.cycles = result.cycles;
        accumulateQueueStats(result.stats);
        hwEvents = std::max(hwEvents, result.events.size());
        hwReleases = std::max(hwReleases, result.releases.size());
        if (doAudit && !runLabels->empty()) {
            result.audit = auditAssignments(program, competing, *runLabels,
                                            result.events);
        }
        if (!collectEvents)
            result.events.clear();
        return std::move(result);
    }

    /**
     * Pause tail: keep the in-flight result accumulating internally
     * and hand the caller a *copy*, normalized to exactly what the
     * dense reference kernel would report at this cycle — queue stats
     * settled through the pause cycle, sleeping cells charged their
     * lazy blocked spans (into the copy only; the internal lazy
     * accounting continues untouched when the run resumes).
     */
    RunResult
    pauseSnapshot()
    {
        isPaused = true;
        resumeFrom = result.cycles + 1;
        // The labels may be borrowed from the caller's RunRequest,
        // which can die before resume(); own them now. (The audit at
        // finish() and adoptState both read them later.)
        if (runLabels != &ownedLabels) {
            ownedLabels = *runLabels;
            runLabels = &ownedLabels;
        }

        // Audit-only runs accumulate the full event log internally
        // (needEvents) but must not hand it out: stash it across the
        // copy instead of deep-copying it into the snapshot only to
        // clear it — on large runs with many pause windows that copy
        // would dominate the pause cost.
        std::vector<AssignmentEvent> stash;
        if (!collectEvents)
            result.events.swap(stash);
        RunResult snap = result;
        if (!collectEvents)
            result.events.swap(stash);
        snap.stats.cycles = snap.cycles;
        accumulateQueueStats(snap.stats);
        if (eventMode)
            chargeLazyBlockedSpans(snap.cycles, snap.stats);
        return snap;
    }

    RunResult
    resume(Cycle pause_at)
    {
        if (!isPaused) {
            RunResult bad;
            bad.status = RunStatus::kConfigError;
            bad.error = "resume() called with no paused run";
            return bad;
        }
        isPaused = false;
        pauseTarget = pause_at;
        return execute();
    }

    /**
     * Rebuild the event kernel's auxiliary sets from adopted machine
     * state. Conservative where exactness costs nothing: every
     * non-done cell wakes (a spurious visit blocks again and accounts
     * identically to the dense kernel) and every routed link gets a
     * policy recheck (the dense kernel ticks every link every cycle);
     * the queue-event calendar and hot/pending link sets are rebuilt
     * exactly from the queues and crossings.
     */
    void
    rebuildEventState()
    {
        activeCells.clear();
        nextCycleWakes.clear();
        wakeScratch.clear();
        timedWakes.clear();
        fwdLinks.clear();
        pendingLinks.clear();
        recheckList.clear();
        queueEvents.clear();
        queueEventsHeaped = 0;
        queueEventCompactLimit = 64;

        doneCells = static_cast<int>(cells.size() - programCells.size());
        for (CellId c : programCells) {
            cellWaitLink[c] = kInvalidLink;
            waiterNext[c] = kInvalidCell;
            if (cells[c].done())
                ++doneCells;
            else if (!(faultsActive && cellDead[c]))
                activeCells.insert(c); // dead cells never re-activate
        }
        for (LinkIndex l : routedLinksDesc) {
            waiterHead[l] = kInvalidCell;
            recheckFlag[l] = 0;
        }
        for (LinkIndex l : routedLinksDesc) {
            LinkState& link = links[l];
            int fwd = 0;
            for (HwQueue& q : link.queues()) {
                if (q.empty())
                    continue;
                // Every non-empty queue gets a live calendar entry
                // (the invariant the timed-event check relies on). A
                // non-empty queue is necessarily assigned.
                scheduleQueueEvent(link, q);
                if (!q.finalHop())
                    ++fwd;
            }
            fwdCount[l] = fwd;
            if (fwd > 0)
                fwdLinks.insert(l);
            int pend = 0;
            for (const Crossing& c : link.crossings()) {
                if (c.phase == CrossingPhase::kRequested)
                    ++pend;
            }
            pendingCount[l] = pend;
            if (pend > 0)
                pendingLinks.insert(l);
            markRecheck(l);
        }
    }

    bool
    adoptFrom(const Impl& o)
    {
        if (!o.isPaused || !configOk || !o.configOk)
            return false;
        // Same machine, same semantics; only the kernel may differ.
        if (&program != &o.program || &spec != &o.spec)
            return false;
        if (options.memoryToMemory != o.options.memoryToMemory ||
            options.memAccessCost != o.options.memAccessCost)
            return false;

        arena.copyMachineStateFrom(o.arena);
        writeSeq = o.writeSeq;
        readSeq = o.readSeq;
        result = o.result; // the accumulated partial result, deep copy

        // Adopt the donor's fault state wholesale. The plan pointer is
        // shared (the caller owns its lifetime); the derived flags are
        // copied sparsely via the donor's touched lists. Queue clamps
        // travelled with the arena copy above.
        clearFaultState();
        faults = o.faults;
        faultsActive = o.faultsActive;
        faultCursor = o.faultCursor;
        faultTouchedLinks = o.faultTouchedLinks;
        faultTouchedCells = o.faultTouchedCells;
        degradedQueues = o.degradedQueues;
        activeStalls = o.activeStalls;
        for (LinkIndex l : faultTouchedLinks) {
            linkDead[l] = o.linkDead[l];
            linkStallUntil[l] = o.linkStallUntil[l];
        }
        for (CellId c : faultTouchedCells)
            cellDead[c] = o.cellDead[c];

        ownedLabels = *o.runLabels;
        runLabels = &ownedLabels;
        adoptedPolicy = o.policy->clone();
        policy = adoptedPolicy.get();
        observer = o.observer;
        maxCycles = o.maxCycles;
        doAudit = o.doAudit;
        collectEvents = o.collectEvents;
        needEvents = o.needEvents;
        collectReleases = o.collectReleases;
        collectTiming = o.collectTiming;
        collectReceived = o.collectReceived;

        resumeFrom = o.resumeFrom;
        pauseTarget = 0;
        isPaused = true;

        // Dense-normalize the blocked-cycle accounting. An
        // event-driven donor charges sleeping cells lazily at their
        // next visit, so its internal stats are short the spans
        // [lastVisitCycle+1, pause]; charge those now. A dense donor
        // already charged every cycle (and never moves the visit
        // cursor), so only the cursor is brought up to date. Either
        // way, every live cell leaves here with its cursor at the
        // pause cycle and stats exactly as the dense kernel would
        // report them — the common baseline both kernels accumulate
        // identically from.
        const Cycle pauseCycle = resumeFrom - 1;
        if (o.eventMode)
            chargeLazyBlockedSpans(pauseCycle, result.stats);
        for (CellId c : programCells) {
            if (!cells[c].done())
                cells[c].lastVisitCycle = pauseCycle;
        }

        if (eventMode)
            rebuildEventState();
        return true;
    }

    std::uint64_t
    machineDigest() const
    {
        std::uint64_t h = arena.machineDigest();
        for (int s : writeSeq)
            h = fnv(h, static_cast<std::uint64_t>(s));
        for (int s : readSeq)
            h = fnv(h, static_cast<std::uint64_t>(s));
        return h;
    }

    // -----------------------------------------------------------------
    // Checkpoint persistence (crash resume across processes)
    // -----------------------------------------------------------------

    bool
    saveCheckpointTo(std::vector<std::uint8_t>& out) const
    {
        if (!isPaused)
            return false;
        // Only stats-level runs are persistable: the opt-in result
        // vectors (events, releases, timing, received, audit input)
        // are not serialized, and silently resuming without them
        // would break the bit-identity contract.
        if (needEvents || collectReleases || collectTiming ||
            collectReceived || doAudit)
            return false;
        ByteWriter w(out);
        w.put(kCheckpointMagic);
        w.put(kCheckpointVersion);
        w.put(machineDigest());
        // The restoring session needs to know whether these stats
        // were accumulated lazily (event kernel: sleeping cells are
        // charged at their next visit) to dense-normalize them — the
        // same boundary adjustment adoptFrom makes.
        w.put(static_cast<std::uint8_t>(eventMode ? 1 : 0));
        // The fault plan itself is not serialized — the restoring
        // caller must supply the identical plan in its RunRequest and
        // this digest is the end-to-end check. Derived flags are
        // rebuilt by replaying the plan up to the pause cycle; the
        // queue capacity clamps travel with the arena pools.
        w.put(faults != nullptr ? faults->digest()
                                : std::uint64_t{0});
        w.put(resumeFrom);
        w.put(result.cycles);
        w.putVector(writeSeq);
        w.putVector(readSeq);
        // The *internal* lazily-accumulated statistics, not the
        // dense-normalized snapshot run() handed out: restore
        // continues the lazy accounting exactly where it stopped
        // (queue stat cursors and cell visit clocks travel with the
        // machine pools below).
        saveStats(w, result.stats);
        std::vector<std::uint64_t> policyState;
        policy->saveState(policyState);
        w.putVector(policyState);
        arena.serializeMachineState(out);
        return true;
    }

    bool
    restoreCheckpointFrom(const RunRequest& request,
                          const std::uint8_t* data, std::size_t size)
    {
        isPaused = false; // failure must not leave a bogus paused run
        if (!configOk || request.collect != Collect::kNone)
            return false;
        ByteReader r(data, size);
        if (r.get<std::uint32_t>() != kCheckpointMagic ||
            r.get<std::uint32_t>() != kCheckpointVersion)
            return false;
        const std::uint64_t digest = r.get<std::uint64_t>();
        const bool writerWasEventKernel = r.get<std::uint8_t>() != 0;
        const std::uint64_t planDigest = r.get<std::uint64_t>();
        if (planDigest != (request.faults != nullptr
                               ? request.faults->digest()
                               : std::uint64_t{0}))
            return false; // wrong/missing plan: refuse, don't diverge
        const Cycle resume_from = r.get<Cycle>();
        const Cycle cycles = r.get<Cycle>();
        std::vector<int> wseq;
        std::vector<int> rseq;
        if (!r.getVector(wseq) || !r.getVector(rseq) ||
            wseq.size() != writeSeq.size() ||
            rseq.size() != readSeq.size())
            return false;
        SimStats stats;
        if (!loadStats(r, stats) ||
            stats.perCellBlocked.size() != cells.size())
            return false;
        std::vector<std::uint64_t> policyState;
        if (!r.getVector(policyState) || !r.ok())
            return false;
        if (!arena.deserializeMachineState(data + (size - r.remaining()),
                                           r.remaining()))
            return false;
        writeSeq = std::move(wseq);
        readSeq = std::move(rseq);
        // The digest recorded at save time covers everything restored
        // above; recomputing it is the end-to-end torn/mismatched-
        // checkpoint check (a failed restore leaves machine state
        // unspecified — the next run() resets it all anyway).
        if (machineDigest() != digest)
            return false;

        ++runs;
        doAudit = false;
        collectEvents = false;
        needEvents = false;
        collectReleases = false;
        collectTiming = false;
        collectReceived = false;
        observer = request.observer;
        maxCycles = request.maxCycles;
        ownedLabels = resolveLabels(request, runNeedsLabels(request));
        runLabels = &ownedLabels;
        adoptedPolicy.reset();
        policy = &getPolicy(request.policy, *runLabels, request.seed);
        if (!policy->loadState(policyState))
            return false;

        result.status = RunStatus::kPaused;
        result.cycles = cycles;
        result.error.clear();
        result.stats = std::move(stats);
        result.deadlock = DeadlockReport{};
        result.events.clear();
        result.releases.clear();
        result.audit = AuditReport{};
        result.msgTiming.clear();
        result.received.clear();
        result.labelsUsed = *runLabels;

        resumeFrom = resume_from;
        pauseTarget = 0;

        // Rebuild the fault-derived flags by replaying the plan's due
        // events. Queue clamps were already restored with the arena
        // pools (degradeQueue just re-applies the same values); the
        // event-kernel side effects land on state rebuildEventState()
        // redoes below.
        clearFaultState();
        faults = request.faults;
        faultsActive = faults != nullptr && !faults->empty();
        if (faultsActive)
            reapplyFaultsThrough(resumeFrom - 1);

        // Dense-normalize the blocked-cycle accounting exactly as
        // adoptFrom does: an event-kernel writer's stats are short
        // the spans its sleeping cells had not yet been charged
        // (their visit cursors travelled with the cell pool); a dense
        // writer's are already complete. Either way every live cell
        // leaves here with its cursor at the pause cycle — the common
        // baseline both kernels continue identically from.
        const Cycle pauseCycle = resumeFrom - 1;
        if (writerWasEventKernel)
            chargeLazyBlockedSpans(pauseCycle, result.stats);
        for (CellId c : programCells) {
            if (!cells[c].done())
                cells[c].lastVisitCycle = pauseCycle;
        }

        isPaused = true;
        if (eventMode)
            rebuildEventState();
        return true;
    }
};

SimSession::SimSession(const Program& program, const MachineSpec& spec,
                       SessionOptions options)
    : impl_(std::make_unique<Impl>(
          CompiledProgram::compile(program, spec.topo, options.labels,
                                   options.precomputeLabels),
          spec, std::move(options)))
{}

SimSession::SimSession(std::shared_ptr<const CompiledProgram> compiled,
                       const MachineSpec& spec, SessionOptions options)
    : impl_(std::make_unique<Impl>(std::move(compiled), spec,
                                   std::move(options)))
{}

SimSession::~SimSession() = default;
SimSession::SimSession(SimSession&&) noexcept = default;
SimSession& SimSession::operator=(SimSession&&) noexcept = default;

RunResult
SimSession::run(const RunRequest& request)
{
    return impl_->run(request);
}

RunResult
SimSession::resume(Cycle pauseAt)
{
    return impl_->resume(pauseAt);
}

bool
SimSession::paused() const
{
    return impl_->isPaused;
}

bool
SimSession::adoptState(const SimSession& other)
{
    return impl_->adoptFrom(*other.impl_);
}

std::uint64_t
SimSession::machineDigest() const
{
    return impl_->machineDigest();
}

bool
SimSession::valid() const
{
    return impl_->configOk;
}

const std::string&
SimSession::error() const
{
    return impl_->firstError;
}

const std::shared_ptr<const CompiledProgram>&
SimSession::compiled() const
{
    return impl_->compiled;
}

bool
SimSession::saveCheckpoint(std::vector<std::uint8_t>& out) const
{
    return impl_->saveCheckpointTo(out);
}

bool
SimSession::restoreCheckpoint(const RunRequest& request,
                              const std::uint8_t* data, std::size_t size)
{
    return impl_->restoreCheckpointFrom(request, data, size);
}

bool
SimSession::restoreCheckpoint(const RunRequest& request,
                              const std::vector<std::uint8_t>& bytes)
{
    return impl_->restoreCheckpointFrom(request, bytes.data(),
                                        bytes.size());
}

const std::vector<std::int64_t>&
SimSession::labels()
{
    if (!impl_->configOk)
        return kNoLabels;
    return impl_->defaultLabels();
}

int
SimSession::runCount() const
{
    return impl_->runs;
}

} // namespace syscomm::sim
