// InFrame benchmark program.
//
//   perfbench --workload <paper_gray|sunrise_carousel|flicker_panel>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs an untimed warm-up episode of the workload (see workloads.hpp),
// then episodes until --seconds have passed, checks every episode's
// output, and prints a report followed by one JSON line: {"correct",
// "attempted", "failed", "metrics"}. Timings are medians over the run,
// taken on CPU clocks where the work runs on one thread at a time. With
// --trace 0 the metrics are the end-to-end ones, measured with no spans
// recorded. With --trace 1 untraced and traced episodes alternate: the
// per-layer metrics come from the traced ones, trace_overhead_ratio
// compares the two, and the deterministic outcome of every episode must
// match the first one bit for bit.
#include "simd/simd.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace {

using namespace inframe;
using namespace inframe::perfbench;

struct Args {
    Workload workload = Workload::paper_gray;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

[[noreturn]] void usage(const char* problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <paper_gray|sunrise_carousel|"
                 "flicker_panel> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 problem);
    std::exit(2);
}

Args parse_args(int argc, char** argv)
{
    Args args;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            const auto workload = parse_workload(value);
            if (!workload) usage(("unknown workload " + value).c_str());
            args.workload = *workload;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0') usage("--seed must be a non-negative integer");
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0) {
                usage("--seconds must be in (0, 600]");
            }
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace must be 0 or 1");
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--trace-out") {
            args.trace_out = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        usage("--workload, --seed, --seconds and --trace are required");
    }
    return args;
}

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

struct Cpu_time {
    double user_s = 0.0;
    double system_s = 0.0;

    Cpu_time operator-(const Cpu_time& other) const
    {
        return {user_s - other.user_s, system_s - other.system_s};
    }
};

Cpu_time cpu_time()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
    return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

// Metric value for a layer or queue the workload's graph does not have, or
// whose result its stage does not expose (the same -1 sentinel
// core::Stage_metrics uses).
constexpr double not_applicable = -1.0;

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    std::string note;
    // Gated end-to-end metric (BENCHMARK.json "end_to_end"); the others are
    // reported with the per-layer metrics of a traced run.
    bool gated = false;
};

// Per-call samples of one stage across episodes, optionally filtered.
std::vector<double> call_ms(const std::vector<const Episode*>& episodes, const std::string& stage,
                            const std::function<bool(const Call_sample&)>& keep = {})
{
    std::vector<double> out;
    for (const Episode* episode : episodes) {
        const Stage_probe* probe = episode->stage(stage);
        if (probe == nullptr) continue;
        for (const Call_sample& call : probe->calls) {
            if (!keep || keep(call)) out.push_back(call.ms);
        }
    }
    return out;
}

// Median over episodes of a per-episode quantity.
double per_episode(const std::vector<const Episode*>& episodes,
                   const std::function<double(const Episode&)>& of)
{
    std::vector<double> values;
    for (const Episode* episode : episodes) values.push_back(of(*episode));
    return median(values);
}

// Gated timings are medians over the whole run, taken on CPU clocks where
// the work runs on one thread at a time (see thread_cpu_s), so the time a
// shared host steals from the vCPU is left out.

// Median over episodes of simulated seconds per second of run time
// (Episode::run_s).
double sim_rate(const std::vector<const Episode*>& episodes)
{
    return per_episode(episodes, [](const Episode& e) { return e.sim_s / e.run_s; });
}

std::string tail_note(const Tail& tail)
{
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "p%.2f of %zu samples", tail.percentile, tail.samples);
    return buffer;
}

// Stage of the workload's graph that carries a layer, if any.
std::string stage_of_layer(const Episode& episode, const std::string& layer)
{
    static const std::map<std::string, std::vector<std::string>> stages = {
        {"video", {"video"}},
        {"encode", {"encode", "send"}},
        {"link", {"link"}},
        {"decode", {"decode", "receive"}},
        {"hvs", {"assess"}},
    };
    for (const std::string& stage : stages.at(layer)) {
        if (episode.stage(stage) != nullptr) return stage;
    }
    return {};
}

std::vector<Metric> end_to_end_metrics(const std::vector<const Episode*>& untraced,
                                       double peak_rss)
{
    const Episode& first = *untraced.front();
    const std::vector<double> sender = call_ms(untraced, first.sender_stage);
    const std::vector<double> receiver = call_ms(untraced, first.receiver_stage);
    const Tail sender_tail = tail(sender);
    const Tail receiver_tail = tail(receiver);
    // The tails move by more than a tenth between identical runs on a
    // shared host, so they are not gated.
    const std::string episodes = std::to_string(untraced.size()) + " episodes";
    const auto calls_note = [&episodes](const std::string& stage, std::size_t calls) {
        return stage + ".push, median of " + std::to_string(calls) + " calls in " + episodes;
    };
    return {
        {"sender_ms_p50", "ms", median(sender), calls_note(first.sender_stage, sender.size()),
         true},
        {"sender_ms_tail", "ms", sender_tail.value, tail_note(sender_tail), false},
        {"receiver_ms_p50", "ms", median(receiver),
         calls_note(first.receiver_stage, receiver.size()), true},
        {"receiver_ms_tail", "ms", receiver_tail.value, tail_note(receiver_tail), false},
        {"sim_rate", "s/s", sim_rate(untraced), "median of " + episodes, true},
        {"setup_s", "s", per_episode(untraced, [](const Episode& e) { return e.setup_s; }),
         "median of " + std::to_string(untraced.size()) + " set-ups", true},
        {"peak_rss_mb", "MB", peak_rss, "whole process, after the warm-up and 3 episodes", true},
    };
}

std::vector<Metric> per_layer_metrics(const std::vector<const Episode*>& untraced,
                                      const std::vector<const Episode*>& traced)
{
    const Episode& first = *traced.front();
    const Outcome& outcome = first.outcome;
    std::vector<Metric> out;
    const auto add = [&out](std::string name, std::string unit, double value) {
        out.push_back({std::move(name), std::move(unit), value, {}});
    };
    const auto outcome_value = [&outcome](const char* name) {
        return outcome.value(name, not_applicable);
    };
    const auto p50 = [&traced](const std::string& stage,
                               const std::function<bool(const Call_sample&)>& keep = {}) {
        return stage.empty() ? not_applicable : median(call_ms(traced, stage, keep));
    };
    const auto busy = [&traced](const std::string& stage) {
        if (stage.empty()) return not_applicable;
        return per_episode(traced, [&stage](const Episode& e) { return e.stage(stage)->busy_s; });
    };
    const auto calls = [&traced](const std::string& stage,
                                 const std::function<bool(const Call_sample&)>& keep) {
        if (stage.empty()) return not_applicable;
        return per_episode(traced, [&](const Episode& e) {
            const auto& samples = e.stage(stage)->calls;
            return static_cast<double>(std::count_if(samples.begin(), samples.end(), keep));
        });
    };
    const auto completes = [](const Call_sample& c) { return c.completes; };
    const auto accumulates = [](const Call_sample& c) { return !c.completes; };

    const std::string video = stage_of_layer(first, "video");
    add("video.frame_ms_p50", "ms", p50(video));
    add("video.busy_s", "s", busy(video));
    add("video.calls", "count", calls(video, [](const Call_sample&) { return true; }));

    const std::string encode = stage_of_layer(first, "encode");
    const double sender_budget = first.sender_budget_ms;
    add("encode.frame_ms_p50", "ms", p50(encode));
    add("encode.busy_s", "s", busy(encode));
    add("encode.over_budget", "count",
        calls(encode, [sender_budget](const Call_sample& c) { return c.ms > sender_budget; }));

    const std::string link = stage_of_layer(first, "link");
    add("link.emit_ms_p50", "ms", p50(link, accumulates));
    add("link.capture_ms_p50", "ms", p50(link, completes));
    add("link.busy_s", "s", busy(link));
    // Medians over episodes; the carousel's run drains a scheduling-dependent
    // few frames past delivery, so its counts can differ between episodes.
    const auto link_count = [&](const std::function<double(const Episode&)>& of) {
        return link.empty() ? not_applicable : per_episode(traced, of);
    };
    add("link.display_frames", "count", link_count([&link](const Episode& e) {
            return static_cast<double>(find_stage(e.pipeline, link)->tokens_in);
        }));
    add("link.captures", "count", link_count([&link](const Episode& e) {
            return static_cast<double>(find_stage(e.pipeline, link)->tokens_out);
        }));
    add("link.captures_dropped", "count", link_count([](const Episode& e) {
            return static_cast<double>(e.captures_dropped);
        }));
    add("link.observed_frame_ratio", "ratio", outcome_value("link.observed_frame_ratio"));

    const std::string decode = stage_of_layer(first, "decode");
    const double receiver_budget = first.receiver_budget_ms;
    add("decode.accumulate_ms_p50", "ms", p50(decode, accumulates));
    add("decode.finalize_ms_p50", "ms", p50(decode, completes));
    add("decode.busy_s", "s", busy(decode));
    add("decode.over_budget", "count",
        decode.empty() ? not_applicable
                       : calls(decode, [receiver_budget](const Call_sample& c) {
                             return c.ms > receiver_budget;
                         }));
    add("decode.available_gob_ratio", "ratio", outcome_value("decode.available_gob_ratio"));
    add("decode.unknown_block_ratio", "ratio", outcome_value("decode.unknown_block_ratio"));

    add("session.frames_decoded", "count", outcome_value("session.frames_decoded"));
    add("session.frames_rejected", "count", outcome_value("session.frames_rejected"));
    add("session.useful_frame_ratio", "ratio", outcome_value("session.useful_frame_ratio"));

    const std::string hvs = stage_of_layer(first, "hvs");
    add("hvs.assess_ms_p50", "ms", p50(hvs));
    add("hvs.busy_s", "s", busy(hvs));
    add("hvs.visibility_ratio", "ratio", outcome_value("hvs.visibility_ratio"));

    for (const char* stage : {"video", "encode", "send", "link", "decode", "receive", "assess"}) {
        const auto queue = [&](const std::function<double(const core::Stage_metrics&)>& of) {
            return per_episode(traced, [&](const Episode& e) {
                const core::Stage_metrics* metrics = find_stage(e.pipeline, stage);
                return metrics == nullptr ? not_applicable : of(*metrics);
            });
        };
        const std::string prefix = std::string("pipeline.") + stage;
        add(prefix + ".input_waits", "count",
            queue([](const core::Stage_metrics& m) { return static_cast<double>(m.input_waits); }));
        add(prefix + ".output_waits", "count", queue([](const core::Stage_metrics& m) {
                return static_cast<double>(m.output_waits);
            }));
        add(prefix + ".queue_depth", "tokens",
            queue([](const core::Stage_metrics& m) { return m.mean_input_queue_depth; }));
    }
    add("pipeline.bottleneck_share", "ratio", per_episode(traced, [](const Episode& e) {
            double busiest = 0.0;
            for (const auto& stage : e.pipeline.stages) busiest = std::max(busiest, stage.wall_s);
            return busiest / e.pipeline.wall_s;
        }));
    add("pipeline.pool_misses", "count", per_episode(traced, [](const Episode& e) {
            return static_cast<double>(e.pipeline.pool_misses);
        }));
    add("trace_overhead_ratio", "ratio", sim_rate(traced) / sim_rate(untraced));

    add("goodput_kbps", "kbps", outcome_value("goodput_kbps"));
    add("payload_ber", "ratio", outcome_value("payload_ber"));
    add("delivery_sim_s", "s", outcome_value("delivery_sim_s"));
    add("delivery_wall_s", "s",
        first.delivery_wall_s < 0.0
            ? not_applicable
            : per_episode(untraced, [](const Episode& e) { return e.delivery_wall_s; }));
    add("flicker_score", "score", outcome_value("flicker_score"));
    add("fail_ratio", "ratio", outcome_value("fail_ratio"));
    return out;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics)
{
    std::printf("%s\n", title);
    for (const Metric& metric : metrics) {
        if (metric.value == not_applicable) {
            std::printf("  %-34s %14s %-6s (not measured in this workload)\n",
                        metric.name.c_str(), "-", metric.unit.c_str());
        } else {
            std::printf("  %-34s %14.6g %-6s %s\n", metric.name.c_str(), metric.value,
                        metric.unit.c_str(), metric.note.c_str());
        }
    }
}

// Per-layer self-time report over the traced episodes' spans.
void print_self_time(const Trace& trace, const std::vector<const Episode*>& traced, bool serial)
{
    const std::vector<Span> spans = trace.spans();
    const std::map<std::string, Layer_time> layers = layer_times(spans);
    double wall = 0.0;
    for (const Episode* episode : traced) wall += episode->run_wall_s;
    std::printf("layer self time over %zu traced episodes (%.3f s of Pipeline::run wall):\n",
                traced.size(), wall);
    std::printf("  %-10s %8s %10s %10s %8s\n", "layer", "calls", "busy s", "self s", "wall %");
    double stage_busy = 0.0;
    for (const auto& [layer, time] : layers) {
        std::printf("  %-10s %8lld %10.4f %10.4f %7.1f%%\n", layer.c_str(),
                    static_cast<long long>(time.calls), time.busy_s, time.self_s,
                    100.0 * time.busy_s / wall);
        if (layer != "pipeline") stage_busy += time.busy_s;
    }
    if (serial) {
        std::printf("  stage layers account for %.4f s of %.4f s wall; unaccounted remainder "
                    "%.4f s (%.1f%%: executor, frame pool, sink recycling)\n",
                    stage_busy, wall, wall - stage_busy, 100.0 * (wall - stage_busy) / wall);
    }

    // Bottleneck: the stage busy for the largest share of wall. In the
    // overlap executor its neighbours wait on it: upstream blocks pushing
    // into its queue, downstream blocks popping from an empty one.
    std::vector<core::Stage_metrics> stages = traced.front()->pipeline.stages;
    for (std::size_t e = 1; e < traced.size(); ++e) {
        for (std::size_t i = 0; i < stages.size(); ++i) {
            const core::Stage_metrics& more = traced[e]->pipeline.stages[i];
            stages[i].wall_s += more.wall_s;
            if (more.input_waits >= 0) stages[i].input_waits += more.input_waits;
            if (more.output_waits >= 0) stages[i].output_waits += more.output_waits;
        }
    }
    const auto busiest = static_cast<std::size_t>(
        std::max_element(stages.begin(), stages.end(),
                         [](const auto& a, const auto& b) { return a.wall_s < b.wall_s; })
        - stages.begin());
    std::printf("  bottleneck stage: %s, busy %.1f%% of wall", stages[busiest].name.c_str(),
                100.0 * stages[busiest].wall_s / wall);
    if (serial) {
        std::printf(" (serial executor: every other stage waits while it runs)\n");
        return;
    }
    const std::string upstream =
        busiest == 0 ? "none"
                     : stages[busiest - 1].name + " waited "
                           + std::to_string(stages[busiest - 1].output_waits) + " times to push";
    const std::string downstream =
        busiest + 1 == stages.size()
            ? "none"
            : stages[busiest + 1].name + " waited "
                  + std::to_string(stages[busiest + 1].input_waits) + " times to pop";
    std::printf("; upstream %s; downstream %s\n", upstream.c_str(), downstream.c_str());
}

void print_json(bool correct, std::int64_t attempted, std::int64_t failed,
                const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int main(int argc, char** argv)
{
    const Args args = parse_args(argc, argv);
    const Workload_spec spec = spec_for(args.workload);

    std::printf("perfbench %s: seed %llu, %.0f s, trace %d\n", to_string(args.workload),
                static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
    std::printf("meta: nproc=%d simd=%s threads=%d frames_in_flight=%d seed=%llu "
                "display_frames_per_episode=%lld\n",
                util::Thread_pool::hardware_threads(), simd::to_string(simd::active_level()),
                pool_threads, spec.frames_in_flight,
                static_cast<unsigned long long>(args.seed),
                static_cast<long long>(spec.display_frames));
    std::fflush(stdout);

    // One untimed warm-up episode (checked like the others), then episodes
    // until the time is up: another one starts only if it should end closer
    // to the deadline than stopping now. In trace mode every second
    // episode is traced, so both kinds see the same machine conditions.
    Trace trace;
    std::vector<Episode> episodes;
    episodes.push_back(run_episode(spec, args.seed, nullptr));
    const std::size_t min_episodes = args.trace ? 5 : 4; // warm-up included
    // Peak memory is read after a fixed number of episodes: the overlap
    // executor's allocations creep up from one episode to the next, so a
    // peak over the whole run would grow with the number of episodes the
    // host's speed lets it fit in.
    constexpr std::size_t rss_episodes = 4;
    double peak_rss = 0.0;
    const Cpu_time cpu_start = cpu_time();
    const Clock::time_point start = Clock::now();
    double last_s = 0.0;
    while (episodes.size() < min_episodes || seconds_since(start) + last_s / 2 < args.seconds) {
        const bool traced = args.trace && episodes.size() % 2 == 0;
        const Clock::time_point episode_start = Clock::now();
        episodes.push_back(run_episode(spec, args.seed, traced ? &trace : nullptr));
        last_s = seconds_since(episode_start);
        if (episodes.size() == rss_episodes) peak_rss = peak_rss_mb();
    }
    const double measured_s = seconds_since(start);
    const Cpu_time cpu = cpu_time() - cpu_start;

    const auto is_traced = [&args](std::size_t i) { return args.trace && i > 0 && i % 2 == 0; };
    std::vector<const Episode*> untraced;
    std::vector<const Episode*> traced;
    for (std::size_t i = 1; i < episodes.size(); ++i) {
        (is_traced(i) ? traced : untraced).push_back(&episodes[i]);
    }

    // Correctness: every episode passes its gate and reproduces the first
    // episode's outcome exactly, traced or not.
    const Outcome& reference = episodes.front().outcome;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    bool correct = true;
    for (const Episode& episode : episodes) {
        attempted += episode.display_frames;
        const bool ok = episode.outcome.passed && episode.outcome == reference;
        if (!ok) failed += episode.display_frames;
        correct = correct && ok;
    }
    std::printf("episodes: 1 warm-up, then %zu in %.1f s (%zu untraced, %zu traced); process "
                "cpu %.1f s user, %.1f s system\n",
                episodes.size() - 1, measured_s, untraced.size(), traced.size(), cpu.user_s,
                cpu.system_s);
    for (std::size_t i = 0; i < episodes.size(); ++i) {
        const Episode& e = episodes[i];
        std::printf("  episode %zu%s: set-up %.4f s cpu, run %.3f s wall / %.3f s timed, %lld "
                    "display frames, %.4f simulated s per timed s\n",
                    i, i == 0 ? " (warm-up)" : is_traced(i) ? " (traced)" : "", e.setup_s,
                    e.run_wall_s, e.run_s, static_cast<long long>(e.display_frames),
                    e.sim_s / e.run_s);
    }
    std::printf("check: %s; every episode %s\n", reference.check.c_str(),
                correct ? "reproduced it bit for bit" : "did NOT reproduce it");
    if (args.workload == Workload::flicker_panel) {
        const double expected =
            core::run_flicker_experiment(flicker_panel_config(args.seed, spec.display_frames))
                .mean_score;
        const bool same = expected == reference.value("flicker_score", not_applicable);
        std::printf("check: core::run_flicker_experiment on the same config and seed scores "
                    "%.17g (%s)\n",
                    expected, same ? "equal" : "DIFFERENT");
        correct = correct && same;
    }
    std::printf("outcome:");
    for (const auto& [name, value] : reference.values) {
        std::printf(" %s=%.10g", name.c_str(), value);
    }
    std::printf("\n");

    std::vector<Metric> metrics;
    if (correct) {
        const std::vector<Metric> end_to_end = end_to_end_metrics(untraced, peak_rss);
        print_metrics("end-to-end (untraced episodes):", end_to_end);
        if (args.trace) {
            metrics = per_layer_metrics(untraced, traced);
            print_metrics("per-layer (traced episodes; -1 = not measured here):", metrics);
            print_self_time(trace, traced, spec.frames_in_flight == 1);
        }
        for (const Metric& metric : end_to_end) {
            if (metric.gated != args.trace) metrics.push_back(metric);
        }
        for (const Metric& metric : metrics) {
            if (!std::isfinite(metric.value)) {
                std::printf("metric %s is not finite\n", metric.name.c_str());
                correct = false;
            }
        }
    }
    if (args.trace && !args.trace_out.empty()) {
        std::ofstream out(args.trace_out);
        trace.write_chrome_json(out);
        std::printf("spans: %zu written to %s\n", trace.spans().size(), args.trace_out.c_str());
    }
    if (!correct) metrics.clear(); // a failed check reports no timings
    print_json(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}
