/**
 * @file
 * Cross-validation of the static analyzer against the simulator: over
 * randomized programs (clean section 3.3 constructions plus
 * perturbed variants) on three topologies, the static verdict and
 * the dynamic outcome must never disagree —
 *
 *   certified  => a compatible-policy run completes (Theorem 1),
 *   deadlock   => a run deadlocks under ANY policy, and the dynamic
 *                 DeadlockReport implicates every witnessed cell.
 *
 * Both simulator kernels are held to this, so the suite doubles as a
 * kernel-equivalence check through the analyzer's lens. kUnknown
 * programs make no static claim, but still must simulate without
 * faulting.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/analyze.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "core/program_gen.h"
#include "core/topology.h"
#include "sim/machine.h"

namespace syscomm {
namespace {

struct Tally
{
    int programs = 0;
    int certified = 0;
    int witnessed = 0;
    int unknown = 0;
};

sim::RunResult
runOnce(const Program& program, const Topology& topo,
        sim::PolicyKind policy, sim::KernelKind kernel)
{
    MachineSpec spec;
    spec.topo = SharedTopology(Topology(topo));
    spec.queuesPerLink = 2;
    spec.queueCapacity = 1;
    sim::SimOptions options;
    options.policy = policy;
    options.kernel = kernel;
    options.maxCycles = 200'000;
    return sim::simulateProgram(program, spec, options);
}

void
checkProgram(const Program& program, const Topology& topo,
             Tally& tally)
{
    const sim::CompiledProgram compiled(program, topo);
    const AnalysisReport report = analyzeProgram(compiled);
    ++tally.programs;
    const sim::KernelKind kernels[] = {sim::KernelKind::kEventDriven,
                                       sim::KernelKind::kReference};

    if (report.verdict == LintVerdict::kCertified) {
        ++tally.certified;
        for (const sim::KernelKind kernel : kernels) {
            const sim::RunResult result = runOnce(
                program, topo, sim::PolicyKind::kCompatible, kernel);
            EXPECT_TRUE(result.completed())
                << "certified program failed dynamically ("
                << result.statusStr() << "):\n"
                << report.render(program);
        }
        return;
    }

    if (report.verdict == LintVerdict::kDeadlock) {
        ++tally.witnessed;
        ASSERT_FALSE(report.witness.empty());
        std::set<CellId> witnessed;
        for (const WitnessEntry& entry : report.witness.cycle)
            witnessed.insert(entry.cell);
        // The witness claims deadlock under ANY policy; hold it to
        // the harshest ones on both kernels.
        const sim::PolicyKind policies[] = {
            sim::PolicyKind::kFcfs, sim::PolicyKind::kCompatible};
        for (const sim::PolicyKind policy : policies) {
            for (const sim::KernelKind kernel : kernels) {
                const sim::RunResult result =
                    runOnce(program, topo, policy, kernel);
                ASSERT_EQ(result.status, sim::RunStatus::kDeadlocked)
                    << "witnessed program did not deadlock ("
                    << result.statusStr() << "):\n"
                    << report.render(program);
                std::set<CellId> blocked;
                for (const auto& info : result.deadlock.cells)
                    blocked.insert(info.cell);
                for (const CellId cell : witnessed) {
                    EXPECT_TRUE(blocked.count(cell) > 0)
                        << "witness cell " << cell
                        << " not blocked dynamically:\n"
                        << report.render(program) << "\n"
                        << result.deadlock.render();
                }
            }
        }
        return;
    }

    ++tally.unknown;
    // No static claim, but the simulator must still terminate
    // cleanly (complete, deadlock, or exhaust the budget).
    const sim::RunResult result = runOnce(
        program, topo, sim::PolicyKind::kFcfs, kernels[0]);
    EXPECT_NE(result.status, sim::RunStatus::kConfigError)
        << result.error;
}

void
sweepTopology(const Topology& topo, std::uint64_t seedBase,
              int seeds, Tally& tally)
{
    for (int s = 0; s < seeds; ++s) {
        GenOptions gen;
        gen.numMessages = 6;
        gen.maxWords = 4;
        gen.seed = seedBase + static_cast<std::uint64_t>(s);
        gen.interleave = 0.4;
        const Program clean = randomDeadlockFreeProgram(topo, gen);
        checkProgram(clean, topo, tally);
        // Perturbations keep word counts valid but may wreck the
        // section 3.3 order — the analyzer's job is to notice.
        const Program shaken =
            perturbProgram(clean, 3, gen.seed + 1'000);
        checkProgram(shaken, topo, tally);
    }
}

TEST(AnalyzeCrossVal, StaticVerdictNeverDisagreesWithDynamics)
{
    Tally tally;
    sweepTopology(Topology::linearArray(5), 10, 35, tally);
    sweepTopology(Topology::ring(5), 2'000, 35, tally);
    sweepTopology(Topology::mesh(3, 3), 3'000, 35, tally);

    // The acceptance bar: >= 200 distinct programs, and the suite
    // must actually exercise both interesting verdicts — a sweep
    // that never certifies or never witnesses proves nothing.
    EXPECT_GE(tally.programs, 200);
    EXPECT_GE(tally.certified, 40) << "generator drifted";
    EXPECT_GE(tally.witnessed, 5) << "perturbation too gentle";
    ::testing::Test::RecordProperty("programs", tally.programs);
    ::testing::Test::RecordProperty("certified", tally.certified);
    ::testing::Test::RecordProperty("witnessed", tally.witnessed);
    ::testing::Test::RecordProperty("unknown", tally.unknown);
}

} // namespace
} // namespace syscomm
