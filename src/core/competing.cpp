#include "core/competing.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace syscomm {

CompetingAnalysis
CompetingAnalysis::analyze(const Program& program, const Topology& topo)
{
    CompetingAnalysis out;
    out.routes_.reserve(program.numMessages());
    out.on_link_.assign(topo.numLinks(), {});
    out.on_link_dir_.assign(topo.numLinks(), {});

    for (const MessageDecl& m : program.messages()) {
        Route route = computeRoute(topo, m.sender, m.receiver);
        if (route.cells.empty())
            out.unroutable_.push_back(m.id);
        for (const Hop& hop : route.hops) {
            out.on_link_[hop.link].push_back(m.id);
            out.on_link_dir_[hop.link][static_cast<int>(hop.dir)]
                .push_back(m.id);
        }
        out.routes_.push_back(std::move(route));
    }
    return out;
}

int
CompetingAnalysis::maxCompeting() const
{
    int best = 0;
    for (const auto& dirs : on_link_dir_) {
        for (const auto& msgs : dirs)
            best = std::max(best, static_cast<int>(msgs.size()));
    }
    return best;
}

int
CompetingAnalysis::maxOnLink() const
{
    int best = 0;
    for (const auto& msgs : on_link_)
        best = std::max(best, static_cast<int>(msgs.size()));
    return best;
}

Feasibility
checkStaticFeasibility(const CompetingAnalysis& analysis,
                       const MachineSpec& spec)
{
    Feasibility f;
    f.requiredQueuesPerLink = 0;
    for (LinkIndex link = 0; link < analysis.numLinks(); ++link) {
        int need = static_cast<int>(analysis.onLink(link).size());
        if (need > f.requiredQueuesPerLink) {
            f.requiredQueuesPerLink = need;
            f.worstLink = link;
        }
    }
    f.feasible = f.requiredQueuesPerLink <= spec.queuesPerLink;
    if (f.feasible) {
        f.reason = "every message can hold a dedicated queue";
    } else {
        f.reason = "link " + std::to_string(f.worstLink) + " carries " +
                   std::to_string(f.requiredQueuesPerLink) +
                   " messages but has only " +
                   std::to_string(spec.queuesPerLink) + " queues";
    }
    return f;
}

Feasibility
checkDynamicFeasibility(const CompetingAnalysis& analysis,
                        const std::vector<Rational>& labels,
                        const MachineSpec& spec)
{
    Feasibility f;
    f.requiredQueuesPerLink = 0;
    for (LinkIndex link = 0; link < analysis.numLinks(); ++link) {
        std::map<Rational, int> group_sizes;
        for (MessageId m : analysis.onLink(link))
            ++group_sizes[labels[m]];
        for (const auto& [label, size] : group_sizes) {
            if (size > f.requiredQueuesPerLink) {
                f.requiredQueuesPerLink = size;
                f.worstLink = link;
            }
        }
    }
    f.feasible = f.requiredQueuesPerLink <= spec.queuesPerLink;
    if (f.feasible) {
        f.reason = "every same-label group fits its link's queue pool";
    } else {
        f.reason = "link " + std::to_string(f.worstLink) + " has a " +
                   std::to_string(f.requiredQueuesPerLink) +
                   "-message same-label group but only " +
                   std::to_string(spec.queuesPerLink) + " queues";
    }
    return f;
}

} // namespace syscomm
