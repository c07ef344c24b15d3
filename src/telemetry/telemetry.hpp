// Telemetry: out-of-band observability for the simulation pipeline.
//
// Three instruments share one Registry:
//
//   1. Metrics — named counters, gauges and log-bucketed histograms.
//      Hot-path updates land in per-thread shards (no locks, no atomics
//      on the data path) that are merged once at flush, so stage threads
//      never contend on a telemetry cache line.
//   2. Trace spans — begin/end pairs recorded per stage push/flush, per
//      thread-pool task batch, per impairment-stage draw, ... exported as
//      Chrome trace-event JSON (load trace.json in Perfetto or
//      chrome://tracing).
//   3. Per-frame decode diagnostics — one Frame_record per finalized data
//      frame (threshold, unknown/erasure/occlusion counts, GOB
//      availability and parity fills, confidence-margin histogram) plus
//      free-form events (impairment firings), streamed to frames.jsonl.
//
// Determinism contract: telemetry is pure observation. It draws no random
// numbers, reorders no work and mutates no pipeline state, so decoded
// payload bits are identical with telemetry on, off, or at any thread
// count (tests/telemetry/test_telemetry.cpp pins this). When no registry
// is installed every hook reduces to one relaxed atomic load and a
// predicted-not-taken branch.
//
// Threading contract: install/uninstall (Session construction and
// destruction) must not race with instrumented work. The drivers satisfy
// this naturally — the Session brackets Pipeline::run, which joins its
// stage threads, and ambient thread-pool workers only touch telemetry
// while executing a parallel_for that completes inside the run.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace inframe::telemetry {

class Registry;

namespace detail {
// Installed registry + its install epoch. The epoch increments on every
// install/uninstall, so a cached Registry* is known-valid exactly while
// the epoch it was cached under is still current (no A-B-A on address
// reuse).
extern std::atomic<Registry*> g_registry;
extern std::atomic<std::uint64_t> g_epoch;

void counter_add_slow(Registry* registry, int metric, std::uint64_t delta);
void gauge_set_slow(Registry* registry, int metric, double value);
void histogram_record_slow(Registry* registry, int metric, double value);
} // namespace detail

// The registry currently receiving telemetry; nullptr = disabled.
inline Registry* current()
{
    return detail::g_registry.load(std::memory_order_acquire);
}

inline bool enabled() { return current() != nullptr; }

// --- metric names ---------------------------------------------------------

enum class Metric_kind : std::uint8_t { counter, gauge, histogram };

// Interns a metric name into the process-global table and returns its id.
// Ids are stable for the process lifetime, so call sites cache them in
// function-local statics — interning is the cold path, updates are hot.
// Re-interning an existing name returns the existing id (first kind wins).
int intern_metric(const char* name, Metric_kind kind);

struct Metric_name {
    std::string name;
    Metric_kind kind = Metric_kind::counter;
};

// Snapshot of the interned-name table (export and validation).
std::vector<Metric_name> metric_names();

// --- metric update hooks (hot path) ---------------------------------------

inline void counter_add(int metric, std::uint64_t delta = 1)
{
    if (Registry* registry = current()) detail::counter_add_slow(registry, metric, delta);
}

inline void gauge_set(int metric, double value)
{
    if (Registry* registry = current()) detail::gauge_set_slow(registry, metric, value);
}

inline void histogram_record(int metric, double value)
{
    if (Registry* registry = current()) detail::histogram_record_slow(registry, metric, value);
}

// --- histograms -----------------------------------------------------------

// Quarter-octave log2 buckets: bucket 0 collects v <= 0, buckets 1..63
// cover 2^-8 .. 2^7.75 (values outside clamp to the end buckets).
struct Histogram_data {
    static constexpr int bucket_count = 64;
    std::array<std::uint64_t, bucket_count> buckets{};
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    static int bucket_of(double value);
    static double bucket_lower_bound(int bucket);

    void record(double value);
    void merge(const Histogram_data& other);
};

// --- trace spans ----------------------------------------------------------

// RAII span: times the enclosed scope and records one Chrome trace "X"
// event into the calling thread's shard. The name is copied at record
// time, so any lifetime (including a Function_stage's owned string) is
// safe. Inert when no registry is installed.
class Scoped_span {
public:
    explicit Scoped_span(const char* name);
    ~Scoped_span();
    Scoped_span(const Scoped_span&) = delete;
    Scoped_span& operator=(const Scoped_span&) = delete;

private:
    Registry* registry_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::uint64_t start_us_ = 0;
    const char* name_ = nullptr;
};

// --- per-frame decode diagnostics -----------------------------------------

// One record per finalized data frame, emitted by Inframe_decoder and
// streamed to frames.jsonl as {"type":"frame",...}.
struct Frame_record {
    std::int64_t data_frame_index = 0;
    double time_s = 0.0; // data-frame start on the decoder clock
    int captures_used = 0;
    double threshold = 0.0;

    int blocks_total = 0;
    int blocks_unknown = 0;   // no confident decision (includes erasures)
    int blocks_erased = 0;    // flagged as erasures (erasure-aware mode)
    int blocks_occluded = 0;  // erased by the occlusion mask

    int gobs_total = 0;
    int gobs_available = 0;
    int gobs_parity_ok = 0;
    int gobs_recovered = 0;   // single-erasure GOBs filled via parity

    // Confidence margins |metric - threshold| / threshold of every block
    // that saw a threshold, in log2 buckets: bucket 0 collects margins
    // below 2^-7, bucket b covers [2^(b-8), 2^(b-7)), bucket 15 collects
    // margins >= 2^7. Blocks drifting toward the decision boundary pile
    // up in the low buckets.
    static constexpr int margin_buckets = 16;
    std::array<std::uint32_t, margin_buckets> margin_hist{};

    static int margin_bucket(double relative_margin);
};

void emit_frame(const Frame_record& record);

// Free-form event, streamed to frames.jsonl as {"type":"event",...}.
// Impairment firings (drop/duplicate/tear) use this; `index` is the
// capture or frame index the event belongs to.
struct Event {
    const char* category = "";
    const char* name = "";
    std::int64_t index = -1;
    double value = 0.0;
};

void emit_event(const Event& event);

// --- registry -------------------------------------------------------------

struct Counter_value {
    std::string name;
    std::uint64_t value = 0;
};
struct Gauge_value {
    std::string name;
    double value = 0.0;
    bool set = false;
};
struct Histogram_value {
    std::string name;
    Histogram_data data;
};

// Merged view of every shard, taken at export time (or on demand in
// tests). Not meaningful while instrumented threads are still running.
struct Snapshot {
    std::vector<Counter_value> counters;
    std::vector<Gauge_value> gauges;
    std::vector<Histogram_value> histograms;
    std::size_t span_count = 0;
    std::size_t frame_count = 0;
    std::size_t event_count = 0;
};

class Registry {
public:
    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    Snapshot snapshot() const;

    // Chrome trace-event JSON: {"traceEvents":[{"ph":"X",...},...]}.
    void write_chrome_trace(std::ostream& out) const;
    // One JSON object per line: frame records then events.
    void write_frames_jsonl(std::ostream& out) const;
    // Counters/gauges/histograms as one JSON object.
    void write_metrics_json(std::ostream& out) const;

    // Writes trace.json, frames.jsonl and metrics.json into `dir`
    // (created if missing). Returns false if any file could not be
    // written.
    bool write_all(const std::string& dir) const;

private:
    friend void detail::counter_add_slow(Registry*, int, std::uint64_t);
    friend void detail::gauge_set_slow(Registry*, int, double);
    friend void detail::histogram_record_slow(Registry*, int, double);
    friend class Scoped_span;
    friend void emit_frame(const Frame_record&);
    friend void emit_event(const Event&);

    struct Shard;
    struct Impl;
    Shard& shard();

    std::unique_ptr<Impl> impl_;
};

// Installs `registry` as the telemetry sink (nullptr uninstalls). Must
// not race with instrumented work; see the threading contract above.
void install(Registry* registry);

// --- session --------------------------------------------------------------

// Driver-facing configuration: a non-empty trace_dir enables telemetry
// for the scope of a Session and names the export directory.
struct Config {
    std::string trace_dir;

    bool enabled() const { return !trace_dir.empty(); }
};

// Parses `--trace <dir>` out of argv (examples and benches). Also checks
// INFRAME_SIMD: an unknown level name exits with status 2.
Config config_from_args(int argc, char** argv);

// RAII scope: owns a Registry, installs it on construction and, on
// destruction, writes trace.json / frames.jsonl / metrics.json into the
// configured directory and uninstalls. Inert when the config is disabled
// or another session is already active (the outermost session wins, so a
// driver-level session composes with run_link_experiment's own).
class Session {
public:
    Session() = default;
    explicit Session(const Config& config);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool active() const { return registry_ != nullptr; }
    const std::string& dir() const { return dir_; }
    Registry* registry() { return registry_.get(); }

private:
    std::unique_ptr<Registry> registry_;
    std::string dir_;
};

} // namespace inframe::telemetry
