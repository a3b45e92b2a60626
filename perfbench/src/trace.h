#pragma once

// In-memory span recorder. A Span guard around a call into one layer
// records (name, start, end, parent, operation id) when the calling
// thread's operation is traced; otherwise it costs one branch. Spans
// stay in per-thread buffers until the run ends and are written out
// with writeSpans().

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord
{
    const char* name = nullptr;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    /** Index of the enclosing span in the same thread, or -1. */
    std::int32_t parent = -1;
    std::int32_t thread = 0;
    std::int64_t op = 0;
};

/** Marks the calling thread's current operation and whether its
 *  calls are recorded. Nests: the destructor restores the outer op. */
class OpScope
{
  public:
    OpScope(std::int64_t op, bool traced);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

  private:
    std::int64_t savedOp_;
    bool savedTraced_;
};

/** Records one span on the calling thread when its op is traced. */
class Span
{
  public:
    explicit Span(const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    std::int32_t index_ = -1;
};

/** Per-span-name self times (duration minus covered child time). */
struct LayerTimes
{
    /** name -> op id -> summed self time of that op's spans, ns. */
    std::map<std::string, std::map<std::int64_t, std::int64_t>> perOp;
    /** name -> self time of every single span, ns. */
    std::map<std::string, std::vector<std::int64_t>> perCall;
};

/** Self times over every span recorded so far (all threads). Call
 *  only after the recording threads have finished. */
LayerTimes layerTimes();

/** Number of spans recorded so far (all threads). */
std::size_t spanCount();

/** Write every span as one JSON line to @p path; false on IO error. */
bool writeSpans(const std::string& path);

} // namespace perfbench
