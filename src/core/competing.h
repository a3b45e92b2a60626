#pragma once

/**
 * @file
 * Competing-message analysis and queue-feasibility checks.
 *
 * Messages that cross the same interval in the same direction are
 * *competing* (section 2.3) and may have to share queues. The
 * feasibility checks implement the queue-count side conditions of
 * section 7: static assignment needs a dedicated queue per message on
 * each link; the dynamic ordered/simultaneous scheme needs at least as
 * many queues per link as the largest same-label group crossing it
 * (assumption (ii) of Theorem 1).
 */

#include <array>
#include <string>
#include <vector>

#include "core/machine_spec.h"
#include "core/program.h"
#include "core/rational.h"
#include "core/route.h"
#include "core/types.h"

namespace syscomm {

/** Route and per-link competition structure of one program. */
class CompetingAnalysis
{
  public:
    static CompetingAnalysis analyze(const Program& program,
                                     const Topology& topo);

    /** Deterministic route of a message. */
    const Route& route(MessageId msg) const { return routes_[msg]; }
    const std::vector<Route>& routes() const { return routes_; }

    /** Messages whose endpoints are not connected (empty route). */
    const std::vector<MessageId>& unroutable() const { return unroutable_; }

    /** Messages crossing a link in either direction, ascending ids. */
    const std::vector<MessageId>& onLink(LinkIndex link) const
    {
        return on_link_[link];
    }

    /** Messages crossing a link in one direction (competing set). */
    const std::vector<MessageId>& onLinkDir(LinkIndex link,
                                            LinkDir dir) const
    {
        return on_link_dir_[link][static_cast<int>(dir)];
    }

    int numLinks() const { return static_cast<int>(on_link_.size()); }

    /** Largest competing set over all (link, direction) pairs. */
    int maxCompeting() const;

    /** Largest total message count over all links (both directions). */
    int maxOnLink() const;

  private:
    std::vector<Route> routes_;
    std::vector<MessageId> unroutable_;
    std::vector<std::vector<MessageId>> on_link_;
    std::vector<std::array<std::vector<MessageId>, 2>> on_link_dir_;
};

/** Verdict of a feasibility check. */
struct Feasibility
{
    bool feasible = false;
    /** Queues per link the scheme needs for this program. */
    int requiredQueuesPerLink = 0;
    /** A link achieving the requirement (diagnostics). */
    LinkIndex worstLink = kInvalidLink;
    std::string reason;
};

/**
 * Can every message get a dedicated queue on each link it crosses
 * (static assignment, section 7.1)?
 */
Feasibility checkStaticFeasibility(const CompetingAnalysis& analysis,
                                   const MachineSpec& spec);

/**
 * Does each link have enough queues for the largest same-label group
 * crossing it (dynamic ordered + simultaneous assignment, section 7.2)?
 * Same-label groups are counted across both directions because the
 * queues of a link form one shared pool.
 */
Feasibility checkDynamicFeasibility(const CompetingAnalysis& analysis,
                                    const std::vector<Rational>& labels,
                                    const MachineSpec& spec);

} // namespace syscomm
