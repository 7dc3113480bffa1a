#include "spans.hh"

#include <atomic>
#include <cstdio>

namespace perfbench
{

std::uint32_t
laneId()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t lane =
        next.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

std::int32_t
Tracer::open(const char *name)
{
    if (!enabled_)
        return kNoSpan;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? kNoSpan : stack_.back();
    s.solve = solve_;
    s.lane = laneId();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<std::int32_t>(spans_.size());
    stack_.push_back(id);
    s.start = nowNs();
    spans_.push_back(std::move(s));
    return id;
}

void
Tracer::close(std::int32_t id)
{
    if (id == kNoSpan)
        return;
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.end = end;
    s.busy = end - s.start;
    stack_.pop_back();
}

std::int32_t
Tracer::current() const
{
    return stack_.empty() ? kNoSpan : stack_.back();
}

void
Tracer::add(Span span)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<std::int64_t>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].busy;
    for (const Span &s : spans_) {
        if (s.parent == kNoSpan)
            continue;
        const auto p = static_cast<std::size_t>(s.parent);
        if (spans_[p].lane == s.lane)
            self[p] -= s.busy;
    }
    return self;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    const std::vector<std::int64_t> self = selfTimes();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"solve\":%u,"
                     "\"lane\":%u,\"parent\":%d,\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"calls\":%llu,\"busy_ns\":%lld,"
                     "\"self_ns\":%lld}\n",
                     i, s.name.c_str(), s.solve, s.lane, s.parent,
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end),
                     static_cast<unsigned long long>(s.calls),
                     static_cast<long long>(s.busy),
                     static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
}

std::map<std::string, std::int64_t>
selfTimeByLayer(const Tracer &tracer)
{
    const std::vector<std::int64_t> self = tracer.selfTimes();
    std::map<std::string, std::int64_t> byLayer;
    const std::vector<Span> &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].solve != 0)
            byLayer[spans[i].name.substr(0, spans[i].name.find('.'))] +=
                self[i];
    return byLayer;
}

} // namespace perfbench
