#include "core/crossoff.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <unordered_map>

#include "core/competing.h"

namespace syscomm {

SkipBoundFn
zeroSkipBound()
{
    return [](MessageId) { return 0; };
}

SkipBoundFn
uniformSkipBound(int bound)
{
    return [bound](MessageId) { return bound; };
}

SkipBoundFn
unlimitedSkipBound()
{
    return [](MessageId) { return std::numeric_limits<int>::max(); };
}

SkipBoundFn
routeCapacitySkipBound(const CompetingAnalysis& competing,
                       int capacity_per_queue)
{
    auto bounds = std::make_shared<std::vector<int>>();
    bounds->reserve(competing.routes().size());
    for (const Route& route : competing.routes())
        bounds->push_back(route.numHops() * capacity_per_queue);
    return [bounds](MessageId id) { return (*bounds)[id]; };
}

// ---------------------------------------------------------------------
// CrossOffEngine
// ---------------------------------------------------------------------

CrossOffEngine::CrossOffEngine(const Program& program, CrossOffOptions options)
    : program_(program), options_(std::move(options))
{
    if (options_.lookahead && !options_.skip_bound)
        options_.skip_bound = zeroSkipBound();

    int num_cells = program.numCells();
    int num_msgs = program.numMessages();
    cells_.resize(num_cells);
    write_slots_.resize(num_msgs);
    read_slots_.resize(num_msgs);
    next_word_.assign(num_msgs, 0);

    for (CellId cell = 0; cell < num_cells; ++cell) {
        CellState& cs = cells_[cell];
        const std::vector<Op>& ops = program.cellOps(cell);
        for (int pos = 0; pos < static_cast<int>(ops.size()); ++pos) {
            const Op& op = ops[pos];
            if (!op.isTransfer())
                continue;
            int slot = static_cast<int>(cs.transferPos.size());
            cs.transferPos.push_back(pos);
            cs.transferMsg.push_back(op.msg);
            cs.isWrite.push_back(op.isWrite());
            cs.crossed.push_back(false);
            if (op.isWrite())
                write_slots_[op.msg].push_back(slot);
            else
                read_slots_[op.msg].push_back(slot);
            ++total_transfers_;
        }
    }
}

void
CrossOffEngine::advanceFront(CellState& cs) const
{
    while (cs.front < static_cast<int>(cs.crossed.size()) &&
           cs.crossed[cs.front]) {
        ++cs.front;
    }
}

bool
CrossOffEngine::canReach(const CellState& cs, int target,
                         std::vector<MessageId>* skipped) const
{
    if (target < cs.front)
        return true; // already behind the front: impossible for uncrossed ops
    if (!options_.lookahead) {
        // Basic procedure: the op must be the literal front.
        for (int i = cs.front; i < target; ++i) {
            if (!cs.crossed[i])
                return false;
        }
        return true;
    }
    // Lookahead: rule R1 (skip writes only) + rule R2 (bounded skipping).
    std::unordered_map<MessageId, int> skip_counts;
    for (int i = cs.front; i < target; ++i) {
        if (cs.crossed[i])
            continue;
        if (!cs.isWrite[i])
            return false; // R1: reads can never be skipped
        int count = ++skip_counts[cs.transferMsg[i]];
        if (count > options_.skip_bound(cs.transferMsg[i]))
            return false; // R2: exceeds the queue capacity on the route
    }
    if (skipped) {
        for (const auto& [msg, count] : skip_counts)
            skipped->push_back(msg);
        std::sort(skipped->begin(), skipped->end());
    }
    return true;
}

bool
CrossOffEngine::isExecutable(MessageId msg) const
{
    int word = next_word_[msg];
    if (word >= static_cast<int>(write_slots_[msg].size()))
        return false; // fully crossed
    if (word >= static_cast<int>(read_slots_[msg].size()))
        return false; // malformed program (unbalanced counts)
    const MessageDecl& decl = program_.message(msg);
    const CellState& sender = cells_[decl.sender];
    const CellState& receiver = cells_[decl.receiver];
    return canReach(sender, write_slots_[msg][word], nullptr) &&
           canReach(receiver, read_slots_[msg][word], nullptr);
}

std::vector<PairEvent>
CrossOffEngine::executablePairs() const
{
    std::vector<PairEvent> pairs;
    for (MessageId msg = 0; msg < program_.numMessages(); ++msg) {
        int word = next_word_[msg];
        if (word >= static_cast<int>(write_slots_[msg].size()) ||
            word >= static_cast<int>(read_slots_[msg].size())) {
            continue;
        }
        const MessageDecl& decl = program_.message(msg);
        const CellState& sender = cells_[decl.sender];
        const CellState& receiver = cells_[decl.receiver];
        int wslot = write_slots_[msg][word];
        int rslot = read_slots_[msg][word];
        std::vector<MessageId> skipped;
        if (!canReach(sender, wslot, &skipped))
            continue;
        if (!canReach(receiver, rslot, &skipped))
            continue;
        PairEvent ev;
        ev.msg = msg;
        ev.wordIndex = word;
        ev.senderPos = sender.transferPos[wslot];
        ev.receiverPos = receiver.transferPos[rslot];
        std::sort(skipped.begin(), skipped.end());
        skipped.erase(std::unique(skipped.begin(), skipped.end()),
                      skipped.end());
        ev.skippedMessages = std::move(skipped);
        pairs.push_back(std::move(ev));
    }
    return pairs;
}

void
CrossOffEngine::crossOffPair(const PairEvent& pair)
{
    MessageId msg = pair.msg;
    assert(pair.wordIndex == next_word_[msg] &&
           "pairs must be crossed in word order");
    const MessageDecl& decl = program_.message(msg);
    CellState& sender = cells_[decl.sender];
    CellState& receiver = cells_[decl.receiver];
    int wslot = write_slots_[msg][pair.wordIndex];
    int rslot = read_slots_[msg][pair.wordIndex];
    assert(!sender.crossed[wslot] && !receiver.crossed[rslot]);
    sender.crossed[wslot] = true;
    receiver.crossed[rslot] = true;
    crossed_count_ += 2;
    ++next_word_[msg];
    advanceFront(sender);
    advanceFront(receiver);
}

bool
CrossOffEngine::isCrossed(CellId cell, int op_index) const
{
    const CellState& cs = cells_[cell];
    const std::vector<Op>& ops = program_.cellOps(cell);
    assert(op_index >= 0 && op_index < static_cast<int>(ops.size()));
    if (!ops[op_index].isTransfer())
        return true;
    // Binary search the transfer slot holding this op index.
    auto it = std::lower_bound(cs.transferPos.begin(), cs.transferPos.end(),
                               op_index);
    assert(it != cs.transferPos.end() && *it == op_index);
    return cs.crossed[it - cs.transferPos.begin()];
}

int
CrossOffEngine::frontOp(CellId cell) const
{
    const CellState& cs = cells_[cell];
    if (cs.front >= static_cast<int>(cs.transferPos.size()))
        return -1;
    return cs.transferPos[cs.front];
}

std::vector<MessageId>
CrossOffEngine::futureMessages(CellId cell) const
{
    const CellState& cs = cells_[cell];
    std::vector<MessageId> out;
    for (int i = cs.front; i < static_cast<int>(cs.transferMsg.size()); ++i) {
        if (!cs.crossed[i])
            out.push_back(cs.transferMsg[i]);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

// ---------------------------------------------------------------------
// Free functions
// ---------------------------------------------------------------------

CrossOffResult
crossOff(const Program& program, CrossOffOptions options)
{
    CrossOffEngine engine(program, std::move(options));
    CrossOffResult result;
    while (true) {
        std::vector<PairEvent> pairs = engine.executablePairs();
        if (pairs.empty())
            break;
        for (const PairEvent& pair : pairs) {
            engine.crossOffPair(pair);
            result.sequence.push_back(pair);
        }
        result.rounds.push_back(std::move(pairs));
    }
    result.deadlockFree = engine.done();
    result.remainingOps = engine.remainingOps();
    if (!result.deadlockFree) {
        for (CellId cell = 0; cell < program.numCells(); ++cell) {
            int pos = engine.frontOp(cell);
            if (pos >= 0)
                result.stuckFronts.push_back({cell, pos});
        }
    }
    return result;
}

bool
isDeadlockFree(const Program& program)
{
    return crossOff(program).deadlockFree;
}

bool
isDeadlockFreeWithLookahead(const Program& program, SkipBoundFn bound)
{
    CrossOffOptions options;
    options.lookahead = true;
    options.skip_bound = std::move(bound);
    return crossOff(program, std::move(options)).deadlockFree;
}

namespace {

std::string
opToken(const Program& program, CellId cell, int pos)
{
    const Op& op = program.cellOps(cell)[pos];
    if (op.isCompute())
        return "compute";
    std::string kind = op.isWrite() ? "W" : "R";
    return kind + "(" + program.message(op.msg).name + ")";
}

} // namespace

std::string
CrossOffResult::describeStuck(const Program& program) const
{
    if (deadlockFree)
        return "";
    std::string out = "deadlocked program: no executable pair; " +
                      std::to_string(remainingOps) + " ops remain\n";
    for (const auto& [cell, pos] : stuckFronts) {
        out += "  cell " + std::to_string(cell) + " stuck at op " +
               std::to_string(pos) + ": " + opToken(program, cell, pos) +
               "\n";
    }
    return out;
}

std::string
CrossOffResult::traceStr(const Program& program) const
{
    std::string out;
    for (std::size_t step = 0; step < rounds.size(); ++step) {
        out += "Step " + std::to_string(step + 1) + ":";
        for (const PairEvent& pair : rounds[step]) {
            const MessageDecl& m = program.message(pair.msg);
            out += "  W(" + m.name + ")/R(" + m.name + ")";
            if (!pair.skippedMessages.empty()) {
                out += " [skipped:";
                for (MessageId s : pair.skippedMessages)
                    out += " " + program.message(s).name;
                out += "]";
            }
        }
        out += "\n";
    }
    return out;
}

} // namespace syscomm
