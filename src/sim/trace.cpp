#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

namespace syscomm::sim {

std::string
renderQueueTimeline(const RunResult& result, const Program& program,
                    const MachineSpec& spec, int max_width)
{
    Cycle span = std::max<Cycle>(result.cycles, 1);
    Cycle step = std::max<Cycle>(1, (span + max_width - 1) / max_width);
    int columns = static_cast<int>((span + step - 1) / step);

    // Occupancy per (link, queue): fill assignment intervals.
    std::map<std::pair<LinkIndex, int>, std::string> rows;
    for (LinkIndex l = 0; l < spec.topo.numLinks(); ++l) {
        for (int q = 0; q < spec.queuesPerLink; ++q)
            rows[{l, q}] = std::string(columns, '.');
    }
    // Match assignments with releases per (link, queue) in time order.
    std::map<std::pair<LinkIndex, int>, std::vector<const AssignmentEvent*>>
        assigns, releases;
    for (const AssignmentEvent& ev : result.events)
        assigns[{ev.link, ev.queueId}].push_back(&ev);
    for (const AssignmentEvent& ev : result.releases)
        releases[{ev.link, ev.queueId}].push_back(&ev);

    for (auto& [key, list] : assigns) {
        const auto& rel = releases[key];
        for (std::size_t i = 0; i < list.size(); ++i) {
            Cycle from = list[i]->cycle;
            Cycle to = i < rel.size() ? rel[i]->cycle : span;
            char letter = program.message(list[i]->msg).name[0];
            for (Cycle t = from; t <= to && t <= span; t += 1) {
                int col = static_cast<int>(t / step);
                if (col >= columns)
                    col = columns - 1;
                rows[key][col] = letter;
            }
        }
    }

    std::ostringstream os;
    os << "queue occupancy (1 column ~ " << step << " cycle"
       << (step > 1 ? "s" : "") << ", '.' = free)\n";
    for (const auto& [key, text] : rows) {
        const Link& link = spec.topo.link(key.first);
        os << "link " << link.a << "-" << link.b << " q" << key.second
           << ": " << text << "\n";
    }
    return os.str();
}

std::string
renderMessageLatencies(const RunResult& result, const Program& program)
{
    std::ostringstream os;
    os << "message   first-sent  last-recv   span\n";
    for (MessageId m = 0; m < program.numMessages(); ++m) {
        auto [sent, received] = result.msgTiming[m];
        os << program.message(m).name;
        for (std::size_t pad = program.message(m).name.size(); pad < 10;
             ++pad) {
            os << ' ';
        }
        if (sent < 0) {
            os << "(never sent)\n";
            continue;
        }
        os << sent << "\t    " << received << "\t"
           << (received >= sent ? received - sent : -1) << "\n";
    }
    return os.str();
}

Cycle
idealCycles(const Program& program, const Topology& topo)
{
    // Stats-only session run: idealCycles only needs the cycle count,
    // and the static policy never needs labels — skip the labeler.
    auto compiled = CompiledProgram::compile(program, topo, {},
                                             /*precompute_labels=*/false);
    std::int64_t total_words = 0;
    for (MessageId m = 0; m < program.numMessages(); ++m)
        total_words += program.messageLength(m);

    MachineSpec spec;
    spec.topo = compiled->sharedTopo();
    spec.queuesPerLink = std::max(1, compiled->competing().maxOnLink());
    spec.queueCapacity =
        std::max<int>(1, static_cast<int>(std::min<std::int64_t>(
                             total_words, 1 << 20)));
    SimSession session(compiled, spec);
    RunRequest request;
    request.policy = PolicyKind::kStatic;
    RunResult r = session.run(request);
    return r.status == RunStatus::kCompleted ? r.cycles : -1;
}

} // namespace syscomm::sim
