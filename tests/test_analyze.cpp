/**
 * @file
 * Unit tests for the simlint static analyzer (core/analyze.h): the
 * deadlock witness names exactly the wedged cycle, buffer-bound
 * inference finds the section 8.1 boundary, the Theorem 1 passes
 * mirror the SimSession labeling, and route/structure problems come
 * out as typed diagnostics instead of asserts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyze.h"
#include "core/compile.h"
#include "core/machine_spec.h"
#include "core/program.h"
#include "core/topology.h"
#include "sim/session.h"
#include "text/parser.h"

namespace syscomm {
namespace {

Program
parse(const std::string& source)
{
    const text::ParseResult result = text::parseProgram(source);
    EXPECT_TRUE(result.ok) << result.error;
    return result.program;
}

/** Compile @p program for @p topo, then analyze it at @p shape. */
AnalysisReport
lint(const Program& program, Topology topo, const AnalyzeOptions& shape = {})
{
    const sim::CompiledProgram compiled(program, std::move(topo));
    return analyzeProgram(compiled, shape);
}

bool
hasRule(const AnalysisReport& report, LintRule rule)
{
    return std::any_of(report.diagnostics.begin(),
                       report.diagnostics.end(),
                       [rule](const Diagnostic& diag) {
                           return diag.rule == rule;
                       });
}

/** One message between two cells. */
const char* kOneMessage = "cells 2\n"
                          "message X 0 -> 1\n"
                          "cell 0 { W(X) }\n"
                          "cell 1 { R(X) }\n";

/** The mutual read-before-write cycle: deadlocked on every shape. */
const char* kReadCycle = "cells 2\n"
                         "message X 0 -> 1\n"
                         "message Y 1 -> 0\n"
                         "cell 0 { R(Y) W(X) }\n"
                         "cell 1 { R(X) W(Y) }\n";

/** Both cells write all @p words before reading any: deadlock-free
 *  iff the per-message buffering reaches @p words. */
std::string
boundaryText(int words)
{
    std::ostringstream out;
    out << "cells 2\nmessage X 0 -> 1\nmessage Y 1 -> 0\n";
    out << "cell 0 {";
    for (int w = 0; w < words; ++w)
        out << " W(X)";
    for (int w = 0; w < words; ++w)
        out << " R(Y)";
    out << " }\ncell 1 {";
    for (int w = 0; w < words; ++w)
        out << " W(Y)";
    for (int w = 0; w < words; ++w)
        out << " R(X)";
    out << " }\n";
    return out.str();
}

/** Fig. 7 of the paper (examples/analyze.cpp's demo program). */
const char* kFig7 = "cells 4\n"
                    "message A 1 -> 2\n"
                    "message B 2 -> 3\n"
                    "message C 0 -> 3\n"
                    "cell 0 { W(C) W(C) W(C) W(C) }\n"
                    "cell 1 { W(A) W(A) W(A) W(A) }\n"
                    "cell 2 { R(A) R(A) R(A) R(A)"
                    " W(B) W(B) W(B) W(B) }\n"
                    "cell 3 { R(C) R(C) R(C) R(C)"
                    " R(B) R(B) R(B) R(B) }\n";

TEST(Analyze, ReadCycleWitnessImplicatesBothCells)
{
    const Program program = parse(kReadCycle);
    const Topology topo = Topology::linearArray(2);
    const AnalysisReport report = lint(program, topo);

    EXPECT_EQ(report.verdict, LintVerdict::kDeadlock);
    ASSERT_EQ(report.witness.cycle.size(), 2u);
    std::set<CellId> cells;
    for (const WitnessEntry& entry : report.witness.cycle) {
        cells.insert(entry.cell);
        EXPECT_FALSE(entry.isWrite); // both wedge on reads
        EXPECT_EQ(entry.op, 0);
    }
    EXPECT_EQ(cells, (std::set<CellId>{0, 1}));
    // The cycle is in wait-for order: each entry waits for the next.
    EXPECT_EQ(report.witness.cycle[0].waitsFor,
              report.witness.cycle[1].cell);
    EXPECT_EQ(report.witness.cycle[1].waitsFor,
              report.witness.cycle[0].cell);

    // A read cycle: no finite buffering helps.
    EXPECT_EQ(report.minUniformCapacity, -1);
    EXPECT_EQ(report.minUniformSkipBound, -1);
    EXPECT_TRUE(hasRule(report, LintRule::kDeadlockWitness));
    EXPECT_TRUE(hasRule(report, LintRule::kNoFiniteBuffer));
    EXPECT_TRUE(report.hasErrors());
    EXPECT_FALSE(report.render(program).empty());
    EXPECT_FALSE(report.witness.str(program).empty());
}

TEST(Analyze, BufferBoundBoundaryProgram)
{
    const int kWords = 3;
    const Program program = parse(boundaryText(kWords));
    const Topology topo = Topology::linearArray(2);

    // Default shape buffers 1 word per queue: statically deadlocked,
    // wedged on writes.
    const AnalysisReport tight = lint(program, topo);
    EXPECT_EQ(tight.verdict, LintVerdict::kDeadlock);
    ASSERT_FALSE(tight.witness.empty());
    for (const WitnessEntry& entry : tight.witness.cycle)
        EXPECT_TRUE(entry.isWrite);
    // One hop per route, so capacity == skip bound == the write run.
    EXPECT_EQ(tight.minUniformCapacity, kWords);
    EXPECT_EQ(tight.minUniformSkipBound, kWords);
    EXPECT_FALSE(tight.basicDeadlockFree);

    // Exactly enough capacity: free, but only via lookahead, so the
    // verdict stays kUnknown (Theorem 1 as wired covers basic only)
    // and SL013 says why.
    AnalyzeOptions roomy;
    roomy.queueCapacity = kWords;
    const AnalysisReport atBound = lint(program, topo, roomy);
    EXPECT_EQ(atBound.verdict, LintVerdict::kUnknown);
    EXPECT_TRUE(atBound.witness.empty());
    EXPECT_TRUE(hasRule(atBound, LintRule::kLookaheadOnly));
    EXPECT_TRUE(hasRule(atBound, LintRule::kBufferBound));
    EXPECT_EQ(atBound.minUniformCapacity, kWords);

    // The iWarp extension counts toward the bound (section 8).
    AnalyzeOptions extended;
    extended.queueCapacity = 1;
    extended.extensionCapacity = kWords - 1;
    EXPECT_EQ(lint(program, topo, extended).verdict,
              LintVerdict::kUnknown);
}

TEST(Analyze, MultiHopBoundsDisagreeWithCapacity)
{
    // Two 2-hop routes through an empty middle cell: each word is
    // buffered once per hop, so per-queue capacity 1 already yields
    // an R2 skip bound of 2.
    const Program program =
        parse("cells 3\n"
              "message X 0 -> 2\n"
              "message Y 2 -> 0\n"
              "cell 0 { W(X) W(X) R(Y) R(Y) }\n"
              "cell 2 { W(Y) W(Y) R(X) R(X) }\n");
    const Topology topo = Topology::linearArray(3);
    const AnalysisReport report = lint(program, topo);

    EXPECT_NE(report.verdict, LintVerdict::kDeadlock);
    EXPECT_EQ(report.minUniformCapacity, 1);
    EXPECT_EQ(report.minUniformSkipBound, 2);
}

TEST(Analyze, Fig7CertifiesOnDefaultShape)
{
    const Program program = parse(kFig7);
    const Topology topo = Topology::linearArray(4);
    const AnalysisReport report = lint(program, topo);

    EXPECT_EQ(report.verdict, LintVerdict::kCertified);
    EXPECT_TRUE(report.basicDeadlockFree);
    EXPECT_FALSE(report.labelingFellBack);
    EXPECT_TRUE(report.labelsConsistent);
    EXPECT_TRUE(report.feasibleAtShape);
    EXPECT_EQ(report.minUniformCapacity, 0);
    EXPECT_EQ(report.minUniformSkipBound, 0);
    EXPECT_FALSE(report.hasErrors());
    EXPECT_TRUE(report.witness.empty());
}

TEST(Analyze, UnroutableMessageIsInvalidNotAnAssert)
{
    const Program program = parse(kOneMessage);
    const Topology topo = Topology::custom(2, {});
    const AnalysisReport report = lint(program, topo);

    EXPECT_EQ(report.verdict, LintVerdict::kInvalid);
    EXPECT_TRUE(hasRule(report, LintRule::kUnroutableMessage));
    ASSERT_FALSE(report.diagnostics.empty());
    const Diagnostic& diag = report.diagnostics.front();
    EXPECT_EQ(diag.rule, LintRule::kUnroutableMessage);
    EXPECT_EQ(diag.msg, 0);
    EXPECT_FALSE(diag.str(program).empty());
}

TEST(Analyze, UnroutableMessageFailsCompileAndSession)
{
    // A disconnected custom topology: the compile must refuse the
    // program rather than hand sessions a zero-hop route.
    const Program program = parse(kOneMessage);
    auto compiled =
        sim::CompiledProgram::compile(program, Topology::custom(2, {}));
    EXPECT_FALSE(compiled->valid());
    EXPECT_EQ(compiled->competing().unroutable(),
              std::vector<MessageId>{0});

    MachineSpec spec;
    spec.topo = compiled->sharedTopo();
    EXPECT_FALSE(compileProgram(program, spec).ok);
    sim::SimSession session(compiled, spec);
    EXPECT_FALSE(session.valid());
    EXPECT_EQ(session.run({}).status, sim::RunStatus::kConfigError);
}

TEST(Analyze, ExplicitLabelsAreTheOnesChecked)
{
    // Fig. 7 labeled A=3 B=1 C=2: B drops below A (cell 2) and C
    // (cell 3). Section 6 labels would be consistent; analysis() must
    // check the labels sessions on this program run with.
    const Program program = parse(kFig7);
    const Topology topo = Topology::linearArray(4);
    const sim::CompiledProgram compiled(program, topo, {3, 1, 2});
    MachineSpec spec;
    spec.topo = compiled.sharedTopo();
    const auto report = compiled.analysis(spec);

    EXPECT_FALSE(report->labelsConsistent);
    EXPECT_FALSE(report->labelingFellBack);
    EXPECT_TRUE(hasRule(*report, LintRule::kInconsistentLabels));
    EXPECT_NE(report->verdict, LintVerdict::kCertified);
    // Too few explicit labels is a compile error, not a bad index.
    EXPECT_FALSE(sim::CompiledProgram(program, topo, {1, 2}).valid());
}

TEST(Analyze, TopologyMismatchIsInvalid)
{
    const Program program = parse("cells 3\n"
                                  "message X 0 -> 2\n"
                                  "cell 0 { W(X) }\n"
                                  "cell 2 { R(X) }\n");
    const AnalysisReport report = lint(program, Topology::linearArray(2));
    EXPECT_EQ(report.verdict, LintVerdict::kInvalid);
    EXPECT_TRUE(hasRule(report, LintRule::kTopologyMismatch));
}

TEST(Analyze, StructurallyInvalidProgram)
{
    // Read count exceeds write count: validate() refuses it.
    const Program program = parse("cells 2\n"
                                  "message X 0 -> 1\n"
                                  "cell 0 { W(X) }\n"
                                  "cell 1 { R(X) R(X) }\n");
    const AnalysisReport report = lint(program, Topology::linearArray(2));
    EXPECT_EQ(report.verdict, LintVerdict::kInvalid);
    EXPECT_TRUE(hasRule(report, LintRule::kInvalidProgram));
}

TEST(Analyze, ComputePinIsInfoOnly)
{
    const Program program = parse("cells 2\n"
                                  "message X 0 -> 1\n"
                                  "cell 0 { W(X) C }\n"
                                  "cell 1 { R(X) }\n");
    const AnalysisReport report = lint(program, Topology::linearArray(2));
    EXPECT_EQ(report.verdict, LintVerdict::kCertified);
    EXPECT_TRUE(hasRule(report, LintRule::kComputePin));
    for (const Diagnostic& diag : report.diagnostics) {
        if (diag.rule == LintRule::kComputePin) {
            EXPECT_EQ(diag.severity, Severity::kInfo);
        }
    }
}

TEST(Analyze, RuleIdsAndNamesAreStable)
{
    EXPECT_STREQ(lintRuleId(LintRule::kDeadlockWitness), "SL010");
    EXPECT_STREQ(lintRuleId(LintRule::kInvalidProgram), "SL001");
    EXPECT_STREQ(lintVerdictName(LintVerdict::kCertified),
                 "certified");
    EXPECT_STREQ(lintVerdictName(LintVerdict::kDeadlock), "deadlock");
    EXPECT_STREQ(severityName(Severity::kError), "error");
}

} // namespace
} // namespace syscomm
