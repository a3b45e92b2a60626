#include "core/compile.h"

#include "core/label_verify.h"

namespace syscomm {

CompilePlan
compileProgram(const Program& program, const MachineSpec& spec,
               const CompileOptions& options)
{
    CompilePlan plan;

    plan.validationIssues = program.validate(spec.topo.numCells());
    if (!plan.validationIssues.empty()) {
        plan.error = "program validation failed: " +
                     plan.validationIssues.front();
        return plan;
    }

    // Routes first: the lookahead skip bound reads them.
    plan.competing = CompetingAnalysis::analyze(program, spec.topo);
    if (!plan.competing.unroutable().empty()) {
        MessageId m = plan.competing.unroutable().front();
        plan.error = "message " + program.message(m).name + " has no route";
        return plan;
    }

    // Step 1: deadlock-freedom via crossing-off.
    CrossOffOptions co;
    co.lookahead = options.lookahead;
    if (options.lookahead) {
        co.skip_bound = routeCapacitySkipBound(plan.competing,
                                               spec.totalQueueCapacity());
    }
    plan.crossoff = crossOff(program, co);
    if (!plan.crossoff.deadlockFree) {
        plan.error = plan.crossoff.describeStuck(program);
        return plan;
    }

    // Step 2: consistent labeling (scheme per options).
    switch (options.scheme) {
      case LabelScheme::kSection6: {
        LabelingOptions lo;
        lo.lookahead = options.lookahead;
        lo.skip_bound = co.skip_bound;
        lo.pick = options.pick;
        lo.record_log = options.record_log;
        plan.labeling = labelMessages(program, lo);
        break;
      }
      case LabelScheme::kGraph:
        plan.labeling = graphLabeling(program);
        break;
      case LabelScheme::kTrivial:
        plan.labeling = trivialLabeling(program);
        break;
    }
    if (plan.labeling.success &&
        !isConsistentLabeling(program, plan.labeling.labels)) {
        plan.labeling.success = false;
        plan.labeling.error = "section 6 scheme produced an inconsistent "
                              "labeling";
    }
    if (!plan.labeling.success) {
        if (!options.allowTrivialFallback) {
            plan.error = "labeling failed: " + plan.labeling.error;
            return plan;
        }
        plan.labeling = trivialLabeling(program);
        plan.usedTrivialFallback = true;
    }
    plan.normalizedLabels = plan.labeling.normalized();

    // Step 3: feasibility of a compatible assignment on this machine.
    plan.staticFeasibility = checkStaticFeasibility(plan.competing, spec);
    plan.dynamicFeasibility =
        checkDynamicFeasibility(plan.competing, plan.labeling.labels, spec);

    if (!plan.dynamicFeasibility.feasible) {
        plan.error = "no compatible queue assignment possible: " +
                     plan.dynamicFeasibility.reason;
        return plan;
    }

    plan.ok = true;
    return plan;
}

std::string
CompilePlan::report(const Program& program) const
{
    std::string out;
    out += "deadlock-free: ";
    out += crossoff.deadlockFree ? "yes" : "no";
    out += "\n";
    if (!crossoff.deadlockFree) {
        out += crossoff.describeStuck(program);
        return out;
    }
    out += "labels: " + labeling.str(program);
    if (usedTrivialFallback)
        out += " (trivial fallback)";
    out += "\n";
    out += "static assignment:  " +
           std::string(staticFeasibility.feasible ? "feasible" :
                                                    "infeasible") +
           " (needs " + std::to_string(staticFeasibility.requiredQueuesPerLink) +
           " queues/link)\n";
    out += "dynamic assignment: " +
           std::string(dynamicFeasibility.feasible ? "feasible" :
                                                     "infeasible") +
           " (needs " +
           std::to_string(dynamicFeasibility.requiredQueuesPerLink) +
           " queues/link)\n";
    if (!ok)
        out += "error: " + error + "\n";
    return out;
}

} // namespace syscomm
