// The benchmark's three workloads, each an assembly of core::Pipeline from
// the library's public stages with every layer call wrapped in a timing
// probe (Probe_stage) defined here, so nothing inside the library changes.
//
//   paper_gray        video -> encode -> link -> decode        serial executor
//   sunrise_carousel  video -> send -> link -> receive         overlap executor, 4 in flight
//   flicker_panel     video -> encode -> assess (8 observers)  serial executor
//
// An episode builds the graph (timed as set-up), drives a fixed amount of
// video through it (closed loop: the head injects the next display frame
// as soon as the graph accepts it), and checks the output against the
// ground truth the simulator knows. Everything an episode computes from
// the output is a pure function of (workload, seed); timings are not.
#pragma once

#include "core/link_runner.hpp"
#include "core/pipeline.hpp"
#include "trace.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace inframe::perfbench {

enum class Workload { paper_gray, sunrise_carousel, flicker_panel };

const char* to_string(Workload workload);
std::optional<Workload> parse_workload(std::string_view name);

// Kernel lanes (util::Parallel_scope) in every workload. One lane keeps the
// timings steady on a shared VM: with a lane per core paper_gray ran about
// 2.5x faster, but a parallel_for waits for its slowest lane, that wait
// swings with the host's load, and the 10-seed spreads of its timings were
// 0.32-0.46 (0.07-0.10 with one lane).
constexpr int pool_threads = 1;

struct Workload_spec {
    Workload workload = Workload::paper_gray;
    int frames_in_flight = 1;        // 1 = serial executor
    std::int64_t display_frames = 0; // per episode; the carousel's cap
};

Workload_spec spec_for(Workload workload);

// One timed call into a layer's stage.
struct Call_sample {
    double ms = 0.0; // CPU time of the calling thread (see thread_cpu_s)
    // The call completed downstream work: a capture for the link (also when
    // the impairment chain then drops it), a data frame for the decoder.
    bool completes = false;
};

struct Stage_probe {
    std::string stage; // the pipeline stage's name
    std::vector<Call_sample> calls;
    double busy_s = 0.0; // wall time of every push plus the flush
};

// Deterministic results of an episode, by name, in a fixed order. Two
// episodes of one workload and seed must produce equal outcomes.
struct Outcome {
    bool passed = false;
    std::string check; // what the correctness gate verified, or why it failed
    std::vector<std::pair<std::string, double>> values;

    double value(std::string_view name, double missing = 0.0) const;
    bool operator==(const Outcome&) const = default;
};

struct Episode {
    Outcome outcome;
    double setup_s = 0.0;            // graph construction up to the first head token (CPU)
    double run_wall_s = 0.0;         // Pipeline::run
    // Pipeline::run in the time sim_rate divides by: the process's CPU time
    // under the serial executor, whose stages all run on the calling thread
    // (its wall time on an unshared core), and wall time under the overlap
    // executor, whose stages run at once.
    double run_s = 0.0;
    std::int64_t display_frames = 0; // head tokens injected
    double sim_s = 0.0;              // display_frames / display rate
    double delivery_wall_s = -1.0;   // carousel: run start to reassembly
    std::int64_t captures_dropped = -1; // by the impairment chain; -1 = no link
    double sender_budget_ms = 0.0;   // one display refresh
    double receiver_budget_ms = 0.0; // one capture period (flicker: one refresh)
    std::string sender_stage;
    std::string receiver_stage;
    std::vector<Stage_probe> stages; // graph order
    core::Pipeline_metrics pipeline;

    const Stage_probe* stage(std::string_view name) const;
};

// The executor's metrics for the named stage; null if the graph has none.
const core::Stage_metrics* find_stage(const core::Pipeline_metrics& metrics,
                                      std::string_view name);

// Builds and runs one episode. `trace` (may be null) receives a
// "pipeline.run" root span and one span per layer call.
Episode run_episode(const Workload_spec& spec, std::uint64_t seed, Trace* trace);

// paper_gray as a Link_experiment_config, so the same inputs can be run
// through core::run_link_experiment for comparison.
core::Link_experiment_config paper_gray_config(std::uint64_t seed, std::int64_t display_frames);

// The benchmark's paper_gray graph for an arbitrary config and executor.
Episode run_link_graph(const core::Link_experiment_config& config, int frames_in_flight,
                       Trace* trace);

// flicker_panel as a Flicker_experiment_config (core::run_flicker_experiment
// must give the episode's score).
core::Flicker_experiment_config flicker_panel_config(std::uint64_t seed,
                                                     std::int64_t display_frames);

// Share of the first `display_frames` refresh intervals that overlap some
// capture's exposure window (first row start to last row end).
double observed_frame_ratio(const channel::Camera_params& camera, double refresh_hz,
                            std::int64_t display_frames);

} // namespace inframe::perfbench
