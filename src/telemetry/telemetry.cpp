#include "telemetry/telemetry.hpp"

#include "simd/simd.hpp"
#include "util/contract.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>

namespace inframe::telemetry {

namespace detail {
std::atomic<Registry*> g_registry{nullptr};
std::atomic<std::uint64_t> g_epoch{0};
} // namespace detail

// --- metric name interning ------------------------------------------------

namespace {

struct Name_table {
    std::mutex mutex;
    std::vector<Metric_name> names;
    std::unordered_map<std::string, int> index;
};

Name_table& name_table()
{
    static Name_table table;
    return table;
}

std::string json_escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// JSON has no NaN/Inf literals; clamp to null-adjacent sentinels.
std::string json_number(double v)
{
    if (!std::isfinite(v)) return "0";
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

} // namespace

int intern_metric(const char* name, Metric_kind kind)
{
    Name_table& table = name_table();
    std::lock_guard<std::mutex> lock(table.mutex);
    auto it = table.index.find(name);
    if (it != table.index.end()) return it->second;
    int id = static_cast<int>(table.names.size());
    table.names.push_back(Metric_name{name, kind});
    table.index.emplace(name, id);
    return id;
}

std::vector<Metric_name> metric_names()
{
    Name_table& table = name_table();
    std::lock_guard<std::mutex> lock(table.mutex);
    return table.names;
}

// --- histogram ------------------------------------------------------------

int Histogram_data::bucket_of(double value)
{
    if (!(value > 0.0)) return 0;
    // Quarter-octave buckets starting at 2^-8; bucket 1 holds [2^-8, 2^-7.75).
    double pos = (std::log2(value) + 8.0) * 4.0;
    int bucket = 1 + static_cast<int>(std::floor(pos));
    return std::clamp(bucket, 1, bucket_count - 1);
}

double Histogram_data::bucket_lower_bound(int bucket)
{
    if (bucket <= 0) return 0.0;
    return std::exp2((bucket - 1) / 4.0 - 8.0);
}

void Histogram_data::record(double value)
{
    ++buckets[static_cast<std::size_t>(bucket_of(value))];
    if (count == 0) {
        min = max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    ++count;
    sum += value;
}

void Histogram_data::merge(const Histogram_data& other)
{
    if (other.count == 0) return;
    for (int i = 0; i < bucket_count; ++i) buckets[static_cast<std::size_t>(i)] += other.buckets[static_cast<std::size_t>(i)];
    if (count == 0) {
        min = other.min;
        max = other.max;
    } else {
        min = std::min(min, other.min);
        max = std::max(max, other.max);
    }
    count += other.count;
    sum += other.sum;
}

int Frame_record::margin_bucket(double relative_margin)
{
    if (!(relative_margin > 0.0)) return 0;
    int bucket = static_cast<int>(std::floor(std::log2(relative_margin))) + 8;
    return std::clamp(bucket, 0, margin_buckets - 1);
}

// --- registry internals ---------------------------------------------------

struct Span_record {
    static constexpr std::size_t name_capacity = 40;
    char name[name_capacity];
    std::uint64_t start_us;
    std::uint64_t dur_us;
};

struct Gauge_slot {
    double value = 0.0;
    std::uint64_t seq = 0; // 0 = never set; otherwise global set order
};

struct Registry::Shard {
    std::vector<std::uint64_t> counters;
    std::vector<Gauge_slot> gauges;
    std::vector<Histogram_data> histograms;
    std::vector<Span_record> spans;
};

struct Registry::Impl {
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();

    // Shards are created once per (thread, registry) pair and owned here;
    // only the owning thread writes to a shard's data, so flush-time
    // merging is the only cross-thread access (guarded by the install
    // contract: no instrumented work runs during export).
    mutable std::mutex shard_mutex;
    std::vector<std::unique_ptr<Shard>> shards;

    // Global gauge-set order so "last write wins" is well defined across
    // shards. Relaxed: ordering between racing sets is inherently
    // arbitrary; we only need distinct, monotone tickets.
    std::atomic<std::uint64_t> gauge_seq{0};

    // Frame records and events are rare (one per data frame / impairment
    // firing), so a mutex-guarded vector keeps their order deterministic
    // without touching the hot path.
    mutable std::mutex record_mutex;
    std::vector<Frame_record> frames;
    struct Event_record {
        std::string category;
        std::string name;
        std::int64_t index;
        double value;
    };
    std::vector<Event_record> events;

    std::uint64_t now_us() const
    {
        return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                              std::chrono::steady_clock::now() - t0)
                                              .count());
    }
};

namespace {

// Thread-local pointer to this thread's shard in the installed registry,
// revalidated against the install epoch. Pool worker threads outlive
// registries, so a stale cache entry must never be dereferenced — the
// epoch check guarantees that without locking.
struct Shard_cache {
    Registry* registry = nullptr;
    std::uint64_t epoch = 0;
    void* shard = nullptr; // Registry::Shard*, opaque (Shard is private)
};
thread_local Shard_cache t_shard_cache;

} // namespace

Registry::Shard& Registry::shard()
{
    Shard_cache& cache = t_shard_cache;
    std::uint64_t epoch = detail::g_epoch.load(std::memory_order_acquire);
    if (cache.registry == this && cache.epoch == epoch) return *static_cast<Shard*>(cache.shard);
    std::lock_guard<std::mutex> lock(impl_->shard_mutex);
    impl_->shards.push_back(std::make_unique<Shard>());
    cache = Shard_cache{this, epoch, impl_->shards.back().get()};
    return *impl_->shards.back();
}

namespace detail {

void counter_add_slow(Registry* registry, int metric, std::uint64_t delta)
{
    auto& counters = registry->shard().counters;
    if (counters.size() <= static_cast<std::size_t>(metric)) counters.resize(static_cast<std::size_t>(metric) + 1, 0);
    counters[static_cast<std::size_t>(metric)] += delta;
}

void gauge_set_slow(Registry* registry, int metric, double value)
{
    auto& gauges = registry->shard().gauges;
    if (gauges.size() <= static_cast<std::size_t>(metric)) gauges.resize(static_cast<std::size_t>(metric) + 1);
    Gauge_slot& slot = gauges[static_cast<std::size_t>(metric)];
    slot.value = value;
    slot.seq = 1 + registry->impl_->gauge_seq.fetch_add(1, std::memory_order_relaxed);
}

void histogram_record_slow(Registry* registry, int metric, double value)
{
    auto& histograms = registry->shard().histograms;
    if (histograms.size() <= static_cast<std::size_t>(metric)) histograms.resize(static_cast<std::size_t>(metric) + 1);
    histograms[static_cast<std::size_t>(metric)].record(value);
}

} // namespace detail

// --- spans ----------------------------------------------------------------

Scoped_span::Scoped_span(const char* name)
{
    Registry* registry = current();
    if (!registry) return;
    registry_ = registry;
    epoch_ = detail::g_epoch.load(std::memory_order_acquire);
    start_us_ = registry->impl_->now_us();
    name_ = name;
}

Scoped_span::~Scoped_span()
{
    if (!registry_) return;
    // The registry may have been uninstalled (and even destroyed) while
    // this span was open; the epoch ticket tells us whether the cached
    // pointer is still the live installation.
    if (detail::g_epoch.load(std::memory_order_acquire) != epoch_) return;
    if (detail::g_registry.load(std::memory_order_acquire) != registry_) return;
    std::uint64_t end_us = registry_->impl_->now_us();
    Span_record record{};
    std::strncpy(record.name, name_ ? name_ : "", Span_record::name_capacity - 1);
    record.name[Span_record::name_capacity - 1] = '\0';
    record.start_us = start_us_;
    record.dur_us = end_us >= start_us_ ? end_us - start_us_ : 0;
    registry_->shard().spans.push_back(record);
}

// --- frame records and events ---------------------------------------------

void emit_frame(const Frame_record& record)
{
    Registry* registry = current();
    if (!registry) return;
    std::lock_guard<std::mutex> lock(registry->impl_->record_mutex);
    registry->impl_->frames.push_back(record);
}

void emit_event(const Event& event)
{
    Registry* registry = current();
    if (!registry) return;
    Registry::Impl::Event_record record{event.category ? event.category : "",
                                        event.name ? event.name : "", event.index, event.value};
    std::lock_guard<std::mutex> lock(registry->impl_->record_mutex);
    registry->impl_->events.push_back(std::move(record));
}

// --- registry -------------------------------------------------------------

Registry::Registry() : impl_(std::make_unique<Impl>()) {}

Registry::~Registry()
{
    // Defensive: never leave a dangling installation behind.
    if (detail::g_registry.load(std::memory_order_acquire) == this) install(nullptr);
}

void install(Registry* registry)
{
    detail::g_registry.store(registry, std::memory_order_release);
    detail::g_epoch.fetch_add(1, std::memory_order_acq_rel);
}

Snapshot Registry::snapshot() const
{
    std::vector<Metric_name> names = metric_names();
    Snapshot snap;
    snap.counters.resize(names.size());
    snap.gauges.resize(names.size());
    snap.histograms.resize(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        snap.counters[i].name = names[i].name;
        snap.gauges[i].name = names[i].name;
        snap.histograms[i].name = names[i].name;
    }
    std::vector<std::uint64_t> gauge_seq(names.size(), 0);

    std::lock_guard<std::mutex> shard_lock(impl_->shard_mutex);
    for (const auto& shard : impl_->shards) {
        for (std::size_t i = 0; i < shard->counters.size() && i < names.size(); ++i)
            snap.counters[i].value += shard->counters[i];
        for (std::size_t i = 0; i < shard->gauges.size() && i < names.size(); ++i) {
            const Gauge_slot& slot = shard->gauges[i];
            if (slot.seq > gauge_seq[i]) {
                gauge_seq[i] = slot.seq;
                snap.gauges[i].value = slot.value;
                snap.gauges[i].set = true;
            }
        }
        for (std::size_t i = 0; i < shard->histograms.size() && i < names.size(); ++i)
            snap.histograms[i].data.merge(shard->histograms[i]);
        snap.span_count += shard->spans.size();
    }

    // Drop metrics of the wrong kind / never touched so exports only show
    // real instruments.
    std::vector<Counter_value> counters;
    std::vector<Gauge_value> gauges;
    std::vector<Histogram_value> histograms;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i].kind == Metric_kind::counter && snap.counters[i].value > 0)
            counters.push_back(snap.counters[i]);
        if (names[i].kind == Metric_kind::gauge && snap.gauges[i].set)
            gauges.push_back(snap.gauges[i]);
        if (names[i].kind == Metric_kind::histogram && snap.histograms[i].data.count > 0)
            histograms.push_back(snap.histograms[i]);
    }
    snap.counters = std::move(counters);
    snap.gauges = std::move(gauges);
    snap.histograms = std::move(histograms);

    std::lock_guard<std::mutex> record_lock(impl_->record_mutex);
    snap.frame_count = impl_->frames.size();
    snap.event_count = impl_->events.size();
    return snap;
}

void Registry::write_chrome_trace(std::ostream& out) const
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::lock_guard<std::mutex> lock(impl_->shard_mutex);
    for (std::size_t tid = 0; tid < impl_->shards.size(); ++tid) {
        for (const Span_record& span : impl_->shards[tid]->spans) {
            if (!first) out << ",";
            first = false;
            out << "\n{\"name\":\"" << json_escape(span.name)
                << "\",\"cat\":\"inframe\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
                << ",\"ts\":" << span.start_us << ",\"dur\":" << span.dur_us << "}";
        }
    }
    out << "\n]}\n";
}

void Registry::write_frames_jsonl(std::ostream& out) const
{
    std::lock_guard<std::mutex> lock(impl_->record_mutex);
    for (const Frame_record& f : impl_->frames) {
        out << "{\"type\":\"frame\",\"data_frame_index\":" << f.data_frame_index
            << ",\"time_s\":" << json_number(f.time_s)
            << ",\"captures_used\":" << f.captures_used
            << ",\"threshold\":" << json_number(f.threshold)
            << ",\"blocks_total\":" << f.blocks_total
            << ",\"blocks_unknown\":" << f.blocks_unknown
            << ",\"blocks_erased\":" << f.blocks_erased
            << ",\"blocks_occluded\":" << f.blocks_occluded
            << ",\"gobs_total\":" << f.gobs_total
            << ",\"gobs_available\":" << f.gobs_available
            << ",\"gobs_parity_ok\":" << f.gobs_parity_ok
            << ",\"gobs_recovered\":" << f.gobs_recovered
            << ",\"margin_hist\":[";
        for (int b = 0; b < Frame_record::margin_buckets; ++b) {
            if (b) out << ",";
            out << f.margin_hist[static_cast<std::size_t>(b)];
        }
        out << "]}\n";
    }
    for (const Registry::Impl::Event_record& e : impl_->events) {
        out << "{\"type\":\"event\",\"category\":\"" << json_escape(e.category)
            << "\",\"name\":\"" << json_escape(e.name) << "\",\"index\":" << e.index
            << ",\"value\":" << json_number(e.value) << "}\n";
    }
}

void Registry::write_metrics_json(std::ostream& out) const
{
    Snapshot snap = snapshot();
    out << "{\n  \"counters\": {";
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
        out << (i ? "," : "") << "\n    \"" << json_escape(snap.counters[i].name)
            << "\": " << snap.counters[i].value;
    }
    out << "\n  },\n  \"gauges\": {";
    for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
        out << (i ? "," : "") << "\n    \"" << json_escape(snap.gauges[i].name)
            << "\": " << json_number(snap.gauges[i].value);
    }
    out << "\n  },\n  \"histograms\": {";
    for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
        const Histogram_data& h = snap.histograms[i].data;
        out << (i ? "," : "") << "\n    \"" << json_escape(snap.histograms[i].name)
            << "\": {\"count\": " << h.count << ", \"sum\": " << json_number(h.sum)
            << ", \"min\": " << json_number(h.min) << ", \"max\": " << json_number(h.max)
            << ", \"buckets\": [";
        bool first = true;
        for (int b = 0; b < Histogram_data::bucket_count; ++b) {
            if (h.buckets[static_cast<std::size_t>(b)] == 0) continue;
            if (!first) out << ", ";
            first = false;
            out << "[" << json_number(Histogram_data::bucket_lower_bound(b)) << ", "
                << h.buckets[static_cast<std::size_t>(b)] << "]";
        }
        out << "]}";
    }
    out << "\n  },\n  \"span_count\": " << snap.span_count
        << ",\n  \"frame_count\": " << snap.frame_count
        << ",\n  \"event_count\": " << snap.event_count << "\n}\n";
}

bool Registry::write_all(const std::string& dir) const
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return false;
    bool ok = true;
    {
        std::ofstream out(std::filesystem::path(dir) / "trace.json");
        if (out) write_chrome_trace(out);
        ok = ok && bool(out);
    }
    {
        std::ofstream out(std::filesystem::path(dir) / "frames.jsonl");
        if (out) write_frames_jsonl(out);
        ok = ok && bool(out);
    }
    {
        std::ofstream out(std::filesystem::path(dir) / "metrics.json");
        if (out) write_metrics_json(out);
        ok = ok && bool(out);
    }
    return ok;
}

// --- session --------------------------------------------------------------

Config config_from_args(int argc, char** argv)
{
    // The dispatch layer reads INFRAME_SIMD at the first kernel call, where
    // an unknown name throws out of whatever stage ran first. Every bench
    // and example parses its arguments before any kernel runs, so reject
    // it here.
    if (const char* env = std::getenv("INFRAME_SIMD"); env != nullptr && env[0] != '\0') {
        try {
            simd::level_from_name(env);
        }
        catch (const util::Contract_violation& error) {
            std::fprintf(stderr, "error: INFRAME_SIMD=%s: %s\n", env, error.what());
            std::exit(2);
        }
    }
    Config config;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0) config.trace_dir = argv[i + 1];
    }
    return config;
}

Session::Session(const Config& config)
{
    if (!config.enabled()) return;
    if (current() != nullptr) return; // outermost session wins
    registry_ = std::make_unique<Registry>();
    dir_ = config.trace_dir;
    install(registry_.get());
}

Session::~Session()
{
    if (!registry_) return;
    install(nullptr);
    registry_->write_all(dir_);
}

} // namespace inframe::telemetry
