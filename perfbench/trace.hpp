// In-memory spans recorded by the benchmark around its calls into each
// layer, plus the self-time arithmetic of the per-layer report.
//
// A span's name is "<layer>.<operation>" (e.g. "link.push",
// "hvs.observer"); the layer is the part before the first dot. Spans are
// kept in memory while the workload runs and written out once at exit as
// Chrome trace-event JSON (loadable in Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace inframe::perfbench {

using Clock = std::chrono::steady_clock;

// CPU seconds consumed so far by the calling thread / by the whole
// process. On a paravirtualised guest these clocks leave out the time the
// host stole from the vCPU, and they never count time spent waiting for a
// core, so a call's CPU time measures the program's own work where its
// wall time also measures the host's load.
double thread_cpu_s();
double process_cpu_s();

struct Span {
    std::string name;
    double start_s = 0.0; // seconds since the trace origin
    double end_s = 0.0;
    int parent = -1;       // index of the parent span; -1 = none
    std::int64_t id = -1;  // display-frame / capture index shared by related spans
    std::uint64_t thread = 0;

    double duration_s() const { return end_s - start_s; }
    std::string layer() const { return name.substr(0, name.find('.')); }
};

// Self time of each span: its duration minus the part of its interval
// that its direct children cover (children clipped to the parent, and
// overlapping children counted once).
std::vector<double> self_times(const std::vector<Span>& spans);

struct Layer_time {
    std::int64_t calls = 0; // outermost spans of the layer
    double busy_s = 0.0;    // summed duration of those outermost spans
    double self_s = 0.0;    // summed self time of every span of the layer
};

// Per-layer totals. A span whose parent belongs to the same layer adds
// to that layer's self time but not to its calls or busy time, so nested
// work is not counted twice.
std::map<std::string, Layer_time> layer_times(const std::vector<Span>& spans);

// Thread-safe span log. Spans opened on a thread while another span of
// that thread is open become its children; otherwise their parent is the
// current root (see set_root), which lets stage threads of the overlap
// executor hang their spans under the run that caused them.
class Trace {
public:
    Trace();
    Trace(const Trace&) = delete;
    Trace& operator=(const Trace&) = delete;

    // RAII span on the calling thread.
    class Scope {
    public:
        Scope(Trace* trace, const char* name, std::int64_t id);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        int index() const { return index_; }

    private:
        Trace* trace_;
        int index_ = -1;
        int previous_ = -1;
    };

    void set_root(int span);
    std::vector<Span> spans() const;
    void write_chrome_json(std::ostream& out) const;

private:
    int open(const char* name, std::int64_t id, int thread_parent);
    void close(int span);

    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
    int root_ = -1;           // guarded by mutex_
};

} // namespace inframe::perfbench
