#include "registry.hh"

#include <bit>
#include <sstream>

#include "support/json.hh"

namespace lsched::obs
{

std::size_t
Histogram::bucketOf(std::uint64_t v)
{
    return static_cast<std::size_t>(std::bit_width(v));
}

void
Histogram::record(std::uint64_t v)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    buckets_[bucketOf(v)].fetch_add(1, std::memory_order_relaxed);

    std::uint64_t cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
    cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed))
        ;
}

std::uint64_t
Histogram::min() const
{
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == ~0ull ? 0 : v;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(~0ull, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
}

Registry &
Registry::global()
{
    // Deliberately leaked: exporters run from atexit handlers (the
    // --metrics hook) that may outlive any function-local static's
    // destructor, so the registry must never be destroyed.
    static Registry &registry = *new Registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

std::vector<Registry::Row>
Registry::rows() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Row> out;
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto &[name, c] : counters_)
        out.push_back({name, "counter", c->value(), 0, 0, 0, 0, {}});
    for (const auto &[name, g] : gauges_)
        out.push_back({name, "gauge", g->value(), 0, 0, 0, 0, {}});
    for (const auto &[name, h] : histograms_) {
        out.push_back({name, "histogram", h->count(), h->sum(), h->min(),
                       h->max(), h->mean(), {}});
        out.back().buckets.resize(Histogram::kBuckets);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
            out.back().buckets[i] = h->bucket(i);
    }
    return out;
}

std::string
Registry::toText() const
{
    std::ostringstream os;
    os << "== metrics ==\n";
    for (const Row &r : rows()) {
        os << "  " << r.name << " (" << r.kind << "): " << r.value;
        if (r.kind == "histogram") {
            os << " samples, sum " << r.sum << ", min " << r.min
               << ", max " << r.max << ", mean " << r.mean;
        }
        os << "\n";
    }
    return os.str();
}

std::string
Registry::toCsv() const
{
    std::ostringstream os;
    os << "name,kind,value,sum,min,max,mean\n";
    for (const Row &r : rows()) {
        os << r.name << "," << r.kind << "," << r.value << "," << r.sum
           << "," << r.min << "," << r.max << "," << r.mean << "\n";
    }
    return os.str();
}

std::string
Registry::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    bool first = true;
    const std::vector<Row> all = rows();
    for (const Row &r : all) {
        if (r.kind != "counter")
            continue;
        os << (first ? "" : ",") << jsonString(r.name) << ":" << r.value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const Row &r : all) {
        if (r.kind != "gauge")
            continue;
        os << (first ? "" : ",") << jsonString(r.name) << ":" << r.value;
        first = false;
    }
    os << "},\"histograms\":[";
    first = true;
    for (const Row &r : all) {
        if (r.kind != "histogram")
            continue;
        os << (first ? "" : ",") << "{\"name\":" << jsonString(r.name)
           << ",\"count\":" << r.value << ",\"sum\":" << r.sum
           << ",\"min\":" << r.min << ",\"max\":" << r.max
           << ",\"mean\":" << r.mean << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

} // namespace lsched::obs
