#include "trace.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "common.h"

namespace perfbench {
namespace {

struct ThreadBuffer
{
    std::int32_t thread = 0;
    std::vector<SpanRecord> spans;
    /** Indices of the open spans, innermost last. */
    std::vector<std::int32_t> open;
};

struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry&
registry()
{
    static Registry instance;
    return instance;
}

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::int64_t t_op = 0;
thread_local bool t_traced = false;

ThreadBuffer&
buffer()
{
    if (t_buffer == nullptr) {
        Registry& reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        reg.buffers.push_back(std::make_unique<ThreadBuffer>());
        t_buffer = reg.buffers.back().get();
        t_buffer->thread = static_cast<std::int32_t>(reg.buffers.size());
        t_buffer->spans.reserve(1 << 16);
    }
    return *t_buffer;
}

} // namespace

OpScope::OpScope(std::int64_t op, bool traced)
    : savedOp_(t_op), savedTraced_(t_traced)
{
    t_op = op;
    t_traced = traced;
}

OpScope::~OpScope()
{
    t_op = savedOp_;
    t_traced = savedTraced_;
}

Span::Span(const char* name)
{
    if (!t_traced)
        return;
    ThreadBuffer& buf = buffer();
    SpanRecord rec;
    rec.name = name;
    rec.parent = buf.open.empty() ? -1 : buf.open.back();
    rec.thread = buf.thread;
    rec.op = t_op;
    index_ = static_cast<std::int32_t>(buf.spans.size());
    buf.spans.push_back(rec);
    buf.open.push_back(index_);
    buf.spans.back().startNs = nowNs();
}

Span::~Span()
{
    if (index_ < 0)
        return;
    const std::int64_t end = nowNs();
    ThreadBuffer& buf = *t_buffer;
    buf.spans[static_cast<std::size_t>(index_)].endNs = end;
    buf.open.pop_back();
}

LayerTimes
layerTimes()
{
    LayerTimes out;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (const auto& buf : reg.buffers) {
        const std::vector<SpanRecord>& spans = buf->spans;
        std::vector<std::int64_t> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].endNs - spans[i].startNs;
        for (const SpanRecord& span : spans) {
            if (span.parent >= 0)
                self[static_cast<std::size_t>(span.parent)] -=
                    span.endNs - span.startNs;
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::string name = spans[i].name;
            out.perOp[name][spans[i].op] += self[i];
            out.perCall[name].push_back(self[i]);
        }
    }
    return out;
}

std::size_t
spanCount()
{
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::size_t n = 0;
    for (const auto& buf : reg.buffers)
        n += buf->spans.size();
    return n;
}

bool
writeSpans(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    const std::int64_t origin = processStartNs();
    for (const auto& buf : reg.buffers) {
        for (std::size_t i = 0; i < buf->spans.size(); ++i) {
            const SpanRecord& s = buf->spans[i];
            std::fprintf(f,
                         "{\"name\":\"%s\",\"start_ns\":%lld,"
                         "\"end_ns\":%lld,\"thread\":%d,\"index\":%zu,"
                         "\"parent\":%d,\"op\":%lld}\n",
                         s.name, static_cast<long long>(s.startNs - origin),
                         static_cast<long long>(s.endNs - origin),
                         s.thread, i, s.parent,
                         static_cast<long long>(s.op));
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
