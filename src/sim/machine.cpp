#include "sim/machine.h"

namespace syscomm::sim {

SessionOptions
sessionOptionsFrom(const SimOptions& options)
{
    SessionOptions session;
    session.kernel = options.kernel;
    // options.labels travels as the per-run override (runRequestFrom),
    // which label resolution prefers unconditionally — a session-level
    // copy here would never be consulted. The single-use simulator
    // only labeled when the policy or audit needed it; keep that
    // laziness so one-shot FCFS/random runs pay nothing for the
    // labeler.
    session.precomputeLabels = false;
    session.memoryToMemory = options.memoryToMemory;
    session.memAccessCost = options.memAccessCost;
    return session;
}

RunRequest
runRequestFrom(const SimOptions& options)
{
    RunRequest request;
    request.policy = options.policy;
    request.seed = options.seed;
    request.maxCycles = options.maxCycles;
    request.collect = Collect::kEvents | Collect::kReleases |
                      Collect::kMsgTiming | Collect::kReceived;
    if (options.audit)
        request.collect |= Collect::kAudit;
    // The single-use simulator used caller-given labels for
    // everything, even label-free policies (they still landed in
    // labelsUsed); a per-run override preserves that exactly.
    request.labels = options.labels;
    return request;
}

RunResult
simulateProgram(const Program& program, const MachineSpec& spec,
                const SimOptions& options)
{
    return SimSession(program, spec, sessionOptionsFrom(options))
        .run(runRequestFrom(options));
}

} // namespace syscomm::sim
