#include "trace.hpp"

#include <time.h>

#include <algorithm>
#include <functional>
#include <ios>
#include <ostream>
#include <thread>
#include <utility>

namespace inframe::perfbench {

namespace {

// Innermost open span of the calling thread (-1 = none).
thread_local int t_current_span = -1;

double cpu_clock_s(clockid_t clock)
{
    timespec now{};
    clock_gettime(clock, &now);
    return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

} // namespace

double thread_cpu_s()
{
    return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
}

double process_cpu_s()
{
    return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID);
}

std::vector<double> self_times(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& span : spans) {
        if (span.parent < 0) continue;
        const Span& parent = spans[static_cast<std::size_t>(span.parent)];
        const double start = std::max(span.start_s, parent.start_s);
        const double end = std::min(span.end_s, parent.end_s);
        if (end > start) children[static_cast<std::size_t>(span.parent)].emplace_back(start, end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& intervals = children[i];
        std::sort(intervals.begin(), intervals.end());
        double covered = 0.0;
        double reach = spans[i].start_s;
        for (const auto& [start, end] : intervals) {
            const double from = std::max(start, reach);
            if (end > from) covered += end - from;
            reach = std::max(reach, end);
        }
        self[i] = spans[i].duration_s() - covered;
    }
    return self;
}

std::map<std::string, Layer_time> layer_times(const std::vector<Span>& spans)
{
    const std::vector<double> self = self_times(spans);
    std::map<std::string, Layer_time> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string layer = spans[i].layer();
        Layer_time& time = out[layer];
        time.self_s += self[i];
        const int parent = spans[i].parent;
        if (parent >= 0 && spans[static_cast<std::size_t>(parent)].layer() == layer) continue;
        ++time.calls;
        time.busy_s += spans[i].duration_s();
    }
    return out;
}

Trace::Trace() : origin_(Clock::now()) {}

Trace::Scope::Scope(Trace* trace, const char* name, std::int64_t id)
    : trace_(trace), previous_(t_current_span)
{
    if (trace_ == nullptr) return;
    index_ = trace_->open(name, id, t_current_span);
    t_current_span = index_;
}

Trace::Scope::~Scope()
{
    if (trace_ == nullptr) return;
    trace_->close(index_);
    t_current_span = previous_;
}

void Trace::set_root(int span)
{
    const std::lock_guard lock(mutex_);
    root_ = span;
}

int Trace::open(const char* name, std::int64_t id, int thread_parent)
{
    Span span;
    span.name = name;
    span.id = id;
    span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
    const Clock::time_point now = Clock::now();
    span.start_s = std::chrono::duration<double>(now - origin_).count();
    const std::lock_guard lock(mutex_);
    span.parent = thread_parent >= 0 ? thread_parent : root_;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
}

void Trace::close(int span)
{
    const double end = std::chrono::duration<double>(Clock::now() - origin_).count();
    const std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(span)].end_s = end;
}

std::vector<Span> Trace::spans() const
{
    const std::lock_guard lock(mutex_);
    return spans_;
}

void Trace::write_chrome_json(std::ostream& out) const
{
    const std::vector<Span> all = spans();
    std::map<std::uint64_t, int> thread_ids;
    const std::ios_base::fmtflags flags = out.flags();
    const std::streamsize precision = out.precision(3);
    out << std::fixed << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& span = all[i];
        const int tid =
            thread_ids.try_emplace(span.thread, static_cast<int>(thread_ids.size()) + 1)
                .first->second;
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
            << ",\"ts\":" << span.start_s * 1e6 << ",\"dur\":" << span.duration_s() * 1e6
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << span.parent
            << ",\"id\":" << span.id << "}}";
    }
    out << "\n]}\n";
    out.flags(flags);
    out.precision(precision);
}

} // namespace inframe::perfbench
