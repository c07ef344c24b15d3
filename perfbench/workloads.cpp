#include "workloads.hpp"

#include "coding/geometry.hpp"
#include "core/stages.hpp"
#include "hvs/observer.hpp"
#include "imgproc/image_ops.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "video/playback.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

namespace inframe::perfbench {

namespace {

double seconds_since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// Independent streams for every seeded input of a workload.
struct Seeds {
    std::uint64_t data;
    std::uint64_t camera;
    std::uint64_t impairments;
    std::uint64_t message;
    std::uint64_t observers;
};

Seeds derive_seeds(std::uint64_t seed)
{
    util::Prng prng(seed);
    Seeds seeds{};
    seeds.data = prng.next_u64();
    seeds.camera = prng.next_u64();
    seeds.impairments = prng.next_u64();
    seeds.message = prng.next_u64();
    seeds.observers = prng.next_u64();
    return seeds;
}

// Times every push/flush of the wrapped stage and, when tracing, records
// a "<layer>.<operation>" span around it. `after_push` inspects the
// wrapped stage after each push (on the thread that ran it) and says
// whether the call completed downstream work.
class Probe_stage final : public core::Stage {
public:
    using After_push =
        std::function<bool(std::int64_t index, const std::vector<core::Frame_token>& out)>;

    Probe_stage(std::unique_ptr<core::Stage> inner, const std::string& layer,
                const std::string& operation, Trace* trace, After_push after_push = {})
        : inner_(std::move(inner)),
          push_span_(layer + "." + operation),
          flush_span_(layer + ".flush"),
          trace_(trace),
          after_push_(std::move(after_push))
    {
    }

    const char* name() const override { return inner_->name(); }

    std::vector<core::Frame_token> push(core::Frame_token token) override
    {
        const std::int64_t index = token.index;
        const Clock::time_point start = Clock::now();
        const double cpu_start = thread_cpu_s();
        std::vector<core::Frame_token> out;
        {
            const Trace::Scope span(trace_, push_span_.c_str(), index);
            out = inner_->push(std::move(token));
        }
        const double cpu_s = thread_cpu_s() - cpu_start;
        busy_s_ += seconds_since(start);
        calls_.push_back({cpu_s * 1e3, after_push_ ? after_push_(index, out) : false});
        return out;
    }

    std::vector<core::Frame_token> flush() override
    {
        const Clock::time_point start = Clock::now();
        std::vector<core::Frame_token> out;
        {
            const Trace::Scope span(trace_, flush_span_.c_str(), -1);
            out = inner_->flush();
        }
        busy_s_ += seconds_since(start);
        return out;
    }

    Stage_probe result() const { return {inner_->name(), calls_, busy_s_}; }

private:
    std::unique_ptr<core::Stage> inner_;
    std::string push_span_;
    std::string flush_span_;
    Trace* trace_;
    After_push after_push_;
    std::vector<Call_sample> calls_;
    double busy_s_ = 0.0;
};

template <typename S, typename... Args>
std::pair<Probe_stage*, S*> add_probed(core::Pipeline& pipeline, const std::string& layer,
                                       const std::string& operation, Trace* trace,
                                       Args&&... args)
{
    auto inner = std::make_unique<S>(std::forward<Args>(args)...);
    S* stage = inner.get();
    Probe_stage& probe =
        pipeline.emplace_stage<Probe_stage>(std::move(inner), layer, operation, trace);
    return {&probe, stage};
}

// The observer panel of the side-by-side protocol: every assessor sees
// the shown frame and the unmodified video frame.
class Panel_stage final : public core::Stage {
public:
    Panel_stage(std::vector<hvs::Flicker_assessor> assessors, Trace* trace)
        : assessors_(std::move(assessors)), trace_(trace)
    {
    }

    const char* name() const override { return "assess"; }

    std::vector<core::Frame_token> push(core::Frame_token token) override
    {
        for (hvs::Flicker_assessor& assessor : assessors_) {
            const Trace::Scope span(trace_, "hvs.observer", token.index);
            assessor.push_frame_pair(token.image, token.reference);
        }
        std::vector<core::Frame_token> out;
        out.push_back(std::move(token)); // the runtime recycles sink output frames
        return out;
    }

    // Mean panel score, folded as core::run_flicker_experiment folds it.
    double mean_score() const
    {
        util::Running_stats stats;
        for (const hvs::Flicker_assessor& assessor : assessors_) stats.add(assessor.result().score);
        return stats.mean();
    }

    // Mean visibility ratio behind the scores. Unlike the score it is not
    // clamped at 0, so it shows sub-threshold changes to the displayed
    // frames.
    double mean_visibility() const
    {
        util::Running_stats stats;
        for (const hvs::Flicker_assessor& assessor : assessors_) {
            stats.add(assessor.result().visibility_ratio);
        }
        return stats.mean();
    }

private:
    std::vector<hvs::Flicker_assessor> assessors_;
    Trace* trace_;
};

// Runs the graph under a "pipeline.run" root span; the stage spans of
// every executor thread hang under it.
void run_graph(core::Pipeline& pipeline, std::int64_t head_tokens,
               core::Pipeline_options options, Trace* trace, Episode& episode)
{
    const Trace::Scope root(trace, "pipeline.run", -1);
    if (trace != nullptr) trace->set_root(root.index());
    const bool serial = options.frames_in_flight <= 1;
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_s();
    episode.pipeline = pipeline.run(head_tokens, std::move(options));
    const double cpu_s = process_cpu_s() - cpu_start;
    episode.run_wall_s = seconds_since(start);
    episode.run_s = serial ? cpu_s : episode.run_wall_s;
    if (trace != nullptr) trace->set_root(-1);
    episode.display_frames = episode.pipeline.head_tokens;
}

// --- sunrise_carousel --------------------------------------------------

constexpr int carousel_width = 480;
constexpr int carousel_height = 270;
// Message size: a few RS-framed data-frame chunks, so one delivery takes a
// few simulated seconds and a run holds several deliveries.
constexpr std::size_t carousel_message_bytes = 48;

Episode run_carousel(const Workload_spec& spec, std::uint64_t seed, Trace* trace)
{
    const util::Parallel_scope parallel_scope(pool_threads);
    Episode episode;
    const double setup_start = process_cpu_s();
    const Seeds seeds = derive_seeds(seed);

    // Quickstart geometry: 2-px Pixels at this screen size, camera close
    // enough to resolve the screen 1:1.
    core::Inframe_config config = core::paper_config(carousel_width, carousel_height);
    config.geometry = coding::fitted_geometry(carousel_width, carousel_height, 2);
    channel::Camera_params camera;
    camera.sensor_width = carousel_width;
    camera.sensor_height = carousel_height;
    camera.seed = seeds.camera;
    channel::Impairment_config impairments;
    impairments.seed = seeds.impairments;
    impairments.drop_probability = 0.05;
    impairments.duplicate_probability = 0.05;
    impairments.shake_sigma_px = 0.5;
    core::Decoder_params decoder_params =
        core::make_decoder_params(config, carousel_width, carousel_height);
    decoder_params.detector = core::Detector::matched;
    decoder_params.erasure_aware = true;

    std::vector<std::uint8_t> message(carousel_message_bytes);
    util::Prng(seeds.message).fill_bytes(message);

    core::Pipeline pipeline;
    const video::Playback_schedule schedule{config.display_fps, config.video_fps};
    Probe_stage* video_probe =
        add_probed<core::Video_stage>(pipeline, "video", "push", trace,
                                      video::make_sunrise_video(carousel_width, carousel_height),
                                      schedule)
            .first;
    auto [send_probe, send] =
        add_probed<core::Send_stage>(pipeline, "encode", "send", trace, config, message);
    const std::size_t chunks = send->sender().total_chunks();

    auto link_stage = std::make_unique<core::Link_stage>(channel::Display_params{}, camera,
                                                         carousel_width, carousel_height,
                                                         impairments);
    core::Link_stage& link = *link_stage;
    Probe_stage& link_probe = pipeline.emplace_stage<Probe_stage>(
        std::move(link_stage), "link", "push", trace,
        [&link, dropped = std::int64_t{0}](std::int64_t,
                                           const std::vector<core::Frame_token>& out) mutable {
            const bool completes = !out.empty() || link.captures_dropped() != dropped;
            dropped = link.captures_dropped();
            return completes;
        });

    // State at the capture that completed the message, taken on the sink
    // thread inside that push, so it does not depend on how far the
    // overlap executor drains afterwards.
    struct Delivery {
        bool done = false;
        Clock::time_point at;
        double sim_s = 0.0;
        std::int64_t capture_index = 0;
        std::size_t frames_decoded = 0;
        std::size_t frames_rejected = 0;
        std::size_t chunks_received = 0;
    } delivery;
    auto receive_stage = std::make_unique<core::Receive_stage>(decoder_params, chunks);
    core::Receive_stage& receive = *receive_stage;
    Probe_stage& receive_probe = pipeline.emplace_stage<Probe_stage>(
        std::move(receive_stage), "decode", "receive", trace,
        [&receive, &delivery, parsed = std::size_t{0}](
            std::int64_t index, const std::vector<core::Frame_token>&) mutable {
            const core::Inframe_receiver& receiver = receive.receiver();
            const std::size_t now = receiver.frames_decoded() + receiver.frames_rejected();
            const bool completes = now != parsed;
            parsed = now;
            if (!delivery.done && receiver.message_complete()) {
                delivery.done = true;
                delivery.at = Clock::now();
                delivery.sim_s = receive.completed_at();
                delivery.capture_index = index;
                delivery.frames_decoded = receiver.frames_decoded();
                delivery.frames_rejected = receiver.frames_rejected();
                delivery.chunks_received = receiver.chunks_received();
            }
            return completes;
        });

    core::Pipeline_options options;
    options.frames_in_flight = spec.frames_in_flight;
    options.stop_when = [&delivery] { return delivery.done; };
    episode.setup_s = process_cpu_s() - setup_start;

    const Clock::time_point run_start = Clock::now();
    run_graph(pipeline, spec.display_frames, std::move(options), trace, episode);
    if (delivery.done) {
        episode.delivery_wall_s = std::chrono::duration<double>(delivery.at - run_start).count();
    }

    episode.captures_dropped = link.captures_dropped();
    const std::vector<std::uint8_t> received = receive.receiver().message();
    Outcome& outcome = episode.outcome;
    outcome.passed = delivery.done && received == message;
    outcome.check = !delivery.done ? "message not reassembled within the display-frame cap"
                    : outcome.passed ? "delivered message byte-equal to the sent one (CRC32 "
                                           + std::to_string(util::crc32(received)) + ")"
                                     : "delivered message differs from the sent one";
    const double parsed = static_cast<double>(delivery.frames_decoded + delivery.frames_rejected);
    const std::int64_t frames_to_delivery =
        delivery.done ? static_cast<std::int64_t>(delivery.sim_s * config.display_fps) + 1
                      : spec.display_frames;
    outcome.values = {
        {"delivery_sim_s", delivery.done ? delivery.sim_s : 0.0},
        {"goodput_kbps",
         delivery.done ? 8.0 * static_cast<double>(message.size()) / delivery.sim_s / 1000.0
                       : 0.0},
        {"fail_ratio",
         !delivery.done ? 1.0
         : parsed > 0.0 ? static_cast<double>(delivery.frames_rejected) / parsed
                        : 0.0},
        {"message_bytes", static_cast<double>(message.size())},
        {"message_crc32", static_cast<double>(util::crc32(message))},
        {"session.chunks", static_cast<double>(chunks)},
        {"session.frames_decoded", static_cast<double>(delivery.frames_decoded)},
        {"session.frames_rejected", static_cast<double>(delivery.frames_rejected)},
        {"session.useful_frame_ratio",
         delivery.frames_decoded > 0 ? static_cast<double>(delivery.chunks_received)
                                           / static_cast<double>(delivery.frames_decoded)
                                     : 0.0},
        {"delivery_capture_index", static_cast<double>(delivery.capture_index)},
        {"link.observed_frame_ratio",
         observed_frame_ratio(camera, channel::Display_params{}.refresh_hz, frames_to_delivery)},
    };

    episode.sender_budget_ms = 1000.0 / config.display_fps;
    episode.receiver_budget_ms = 1000.0 / camera.fps;
    episode.sender_stage = "send";
    episode.receiver_stage = "receive";
    episode.sim_s = static_cast<double>(episode.display_frames) / config.display_fps;
    for (const Probe_stage* probe : {video_probe, send_probe, &link_probe, &receive_probe}) {
        episode.stages.push_back(probe->result());
    }
    return episode;
}

// --- flicker_panel -----------------------------------------------------

Episode run_flicker(const Workload_spec& spec, std::uint64_t seed, Trace* trace)
{
    Episode episode;
    const double setup_start = process_cpu_s();
    const core::Flicker_experiment_config config = flicker_panel_config(seed, spec.display_frames);
    const util::Parallel_scope parallel_scope(config.threads);

    std::vector<hvs::Flicker_assessor> assessors;
    for (const hvs::Observer& observer :
         hvs::make_observer_panel(config.observers, config.observer_seed)) {
        assessors.emplace_back(config.inframe.geometry.screen_width,
                               config.inframe.geometry.screen_height, config.inframe.display_fps,
                               config.vision, observer, config.options);
    }

    core::Pipeline pipeline;
    Probe_stage* video_probe =
        add_probed<core::Video_stage>(
            pipeline, "video", "push", trace, config.video,
            video::Playback_schedule{config.inframe.display_fps, config.inframe.video_fps})
            .first;
    core::Encode_stage::Options encode_options;
    encode_options.payloads = core::make_random_payload_source(
        config.data_seed, config.inframe.geometry.payload_bits_per_frame());
    encode_options.emit_reference = true;
    Probe_stage* encode_probe = add_probed<core::Encode_stage>(pipeline, "encode", "push", trace,
                                                               config.inframe,
                                                               std::move(encode_options))
                                    .first;
    auto [assess_probe, panel] =
        add_probed<Panel_stage>(pipeline, "hvs", "assess", trace, std::move(assessors), trace);

    const auto total_display_frames =
        static_cast<std::int64_t>(std::llround(config.duration_s * config.inframe.display_fps));
    core::Pipeline_options options;
    options.frames_in_flight = spec.frames_in_flight;
    episode.setup_s = process_cpu_s() - setup_start;

    run_graph(pipeline, total_display_frames, std::move(options), trace, episode);

    const double score = panel->mean_score();
    Outcome& outcome = episode.outcome;
    outcome.passed = std::isfinite(score) && score >= 0.0 && score <= 4.0;
    outcome.check = outcome.passed ? "panel score on the 0-4 scale" : "panel score out of range";
    outcome.values = {
        {"flicker_score", score},
        {"hvs.visibility_ratio", panel->mean_visibility()},
        {"fail_ratio", 0.0},
        {"observers", static_cast<double>(config.observers)},
    };

    episode.sender_budget_ms = 1000.0 / config.inframe.display_fps;
    episode.receiver_budget_ms = 1000.0 / config.inframe.display_fps;
    episode.sender_stage = "encode";
    episode.receiver_stage = "assess";
    episode.sim_s = static_cast<double>(episode.display_frames) / config.inframe.display_fps;
    for (const Probe_stage* probe : {video_probe, encode_probe, assess_probe}) {
        episode.stages.push_back(probe->result());
    }
    return episode;
}

} // namespace

// --- public ------------------------------------------------------------

const char* to_string(Workload workload)
{
    switch (workload) {
    case Workload::paper_gray: return "paper_gray";
    case Workload::sunrise_carousel: return "sunrise_carousel";
    case Workload::flicker_panel: return "flicker_panel";
    }
    return "?";
}

std::optional<Workload> parse_workload(std::string_view name)
{
    for (Workload workload :
         {Workload::paper_gray, Workload::sunrise_carousel, Workload::flicker_panel}) {
        if (name == to_string(workload)) return workload;
    }
    return std::nullopt;
}

Workload_spec spec_for(Workload workload)
{
    // flicker_panel runs one second: the assessor ignores its first 0.5 s
    // (Flicker_options::warmup_seconds), so a shorter episode scores nothing.
    switch (workload) {
    case Workload::paper_gray: return {workload, 1, 60};
    case Workload::sunrise_carousel: return {workload, 4, 120 * 30};
    case Workload::flicker_panel: return {workload, 1, 120};
    }
    return {};
}

double Outcome::value(std::string_view name, double missing) const
{
    for (const auto& [key, value] : values) {
        if (key == name) return value;
    }
    return missing;
}

const core::Stage_metrics* find_stage(const core::Pipeline_metrics& metrics,
                                      std::string_view name)
{
    for (const core::Stage_metrics& stage : metrics.stages) {
        if (stage.name == name) return &stage;
    }
    return nullptr;
}

const Stage_probe* Episode::stage(std::string_view name) const
{
    for (const Stage_probe& probe : stages) {
        if (probe.stage == name) return &probe;
    }
    return nullptr;
}

Episode run_episode(const Workload_spec& spec, std::uint64_t seed, Trace* trace)
{
    switch (spec.workload) {
    case Workload::paper_gray:
        return run_link_graph(paper_gray_config(seed, spec.display_frames), spec.frames_in_flight,
                              trace);
    case Workload::sunrise_carousel: return run_carousel(spec, seed, trace);
    case Workload::flicker_panel: return run_flicker(spec, seed, trace);
    }
    return {};
}

core::Link_experiment_config paper_gray_config(std::uint64_t seed, std::int64_t display_frames)
{
    const Seeds seeds = derive_seeds(seed);
    core::Link_experiment_config config;
    config.video = video::make_gray_video(1920, 1080);
    config.inframe = core::paper_config(1920, 1080);
    config.camera.seed = seeds.camera;
    config.data_seed = seeds.data;
    config.duration_s = static_cast<double>(display_frames) / config.inframe.display_fps;
    config.threads = pool_threads;
    return config;
}

core::Flicker_experiment_config flicker_panel_config(std::uint64_t seed,
                                                     std::int64_t display_frames)
{
    const Seeds seeds = derive_seeds(seed);
    core::Flicker_experiment_config config;
    config.video = video::make_sunrise_video(480, 270);
    config.inframe = core::paper_config(480, 270);
    config.observers = 8;
    config.observer_seed = seeds.observers;
    config.data_seed = seeds.data;
    config.duration_s = static_cast<double>(display_frames) / config.inframe.display_fps;
    config.threads = pool_threads;
    return config;
}

// Mirrors core::run_link_experiment's assembly (same decoder overrides,
// metering and payload source) with every stage probed, then accounts the
// decoded frames against the encoder's transmitted block bits.
Episode run_link_graph(const core::Link_experiment_config& config, int frames_in_flight,
                       Trace* trace)
{
    const util::Parallel_scope parallel_scope(config.threads >= 0 ? config.threads
                                                                  : config.inframe.threads);
    Episode episode;
    const double setup_start = process_cpu_s();

    core::Decoder_params decoder_params = core::make_decoder_params(
        config.inframe, config.camera.sensor_width, config.camera.sensor_height);
    decoder_params.detector = config.detector;
    decoder_params.texture_compensation = config.texture_compensation;
    decoder_params.auto_threshold = config.auto_threshold;
    decoder_params.fixed_threshold = config.fixed_threshold;
    decoder_params.hysteresis = config.hysteresis;
    decoder_params.capture_to_screen = config.decoder_capture_to_screen;
    decoder_params.erasure_aware = config.erasure_aware;

    channel::Camera_params camera = config.camera;
    if (config.auto_exposure) {
        camera = channel::auto_expose(camera, img::mean(config.video->frame(0)));
    }
    const auto total_display_frames =
        static_cast<std::int64_t>(std::llround(config.duration_s * config.inframe.display_fps));

    core::Pipeline pipeline;
    Probe_stage* video_probe =
        add_probed<core::Video_stage>(
            pipeline, "video", "push", trace, config.video,
            video::Playback_schedule{config.inframe.display_fps, config.inframe.video_fps})
            .first;
    core::Encode_stage::Options encode_options;
    encode_options.payloads =
        config.payloads ? config.payloads
                        : core::make_random_payload_source(
                              config.data_seed, config.inframe.geometry.payload_bits_per_frame());
    auto [encode_probe, encode] = add_probed<core::Encode_stage>(
        pipeline, "encode", "push", trace, config.inframe, std::move(encode_options));

    auto link_stage = std::make_unique<core::Link_stage>(
        config.display, camera, config.inframe.geometry.screen_width,
        config.inframe.geometry.screen_height, config.impairments);
    core::Link_stage& link = *link_stage;
    Probe_stage& link_probe = pipeline.emplace_stage<Probe_stage>(
        std::move(link_stage), "link", "push", trace,
        [&link, dropped = std::int64_t{0}](std::int64_t,
                                           const std::vector<core::Frame_token>& out) mutable {
            const bool completes = !out.empty() || link.captures_dropped() != dropped;
            dropped = link.captures_dropped();
            return completes;
        });

    auto decode_stage = std::make_unique<core::Decode_stage>(decoder_params);
    core::Decode_stage& decode = *decode_stage;
    Probe_stage& decode_probe = pipeline.emplace_stage<Probe_stage>(
        std::move(decode_stage), "decode", "push", trace,
        [&decode, finalized = std::size_t{0}](std::int64_t,
                                              const std::vector<core::Frame_token>&) mutable {
            const bool completes = decode.results().size() != finalized;
            finalized = decode.results().size();
            return completes;
        });

    core::Pipeline_options options;
    options.frames_in_flight = frames_in_flight;
    episode.setup_s = process_cpu_s() - setup_start;

    run_graph(pipeline, total_display_frames, std::move(options), trace, episode);

    // Ground truth: the transmitted block bits of every fully transmitted
    // data frame. A GOB counts as delivered correct only when it is
    // available, passes parity and every payload bit matches the truth.
    const coding::Code_geometry& geometry = config.inframe.geometry;
    const int m = geometry.gob_size;
    const std::int64_t expected_frames = total_display_frames / config.inframe.tau;
    std::int64_t data_frames = 0;
    bool truth_missing = false;
    util::Running_stats available;
    std::size_t good_bits = 0;
    std::size_t payload_bits = 0;
    std::size_t payload_errors = 0;
    std::size_t gobs_sent = 0;
    std::size_t gobs_correct = 0;
    std::size_t blocks = 0;
    std::size_t unknown_blocks = 0;
    for (const core::Data_frame_result& result : decode.results()) {
        if ((result.data_frame_index + 1) * config.inframe.tau > total_display_frames) continue;
        const std::vector<std::uint8_t>* truth =
            encode->encoder().transmitted_block_bits(result.data_frame_index);
        if (truth == nullptr) {
            truth_missing = true;
            continue;
        }
        ++data_frames;
        available.add(result.gob.available_ratio);
        good_bits += result.gob.good_payload_bits;
        std::size_t frame_bit = 0; // payload bits run GOB by GOB in raster order
        for (int gy = 0; gy < geometry.gobs_y(); ++gy) {
            for (int gx = 0; gx < geometry.gobs_x(); ++gx) {
                const coding::Gob_status& gob =
                    result.gob.gobs[static_cast<std::size_t>(gy * geometry.gobs_x() + gx)];
                bool correct = gob.available && gob.parity_ok;
                std::size_t slot = 0;
                for (int j = 0; j < m; ++j) {
                    for (int i = 0; i < m; ++i) {
                        if (j == m - 1 && i == m - 1) continue; // the GOB's parity block
                        const std::uint8_t bit = (*truth)[static_cast<std::size_t>(
                            geometry.block_index(gx * m + i, gy * m + j))];
                        ++payload_bits;
                        if (result.gob.payload_bits[frame_bit++] != bit) ++payload_errors;
                        if (correct && gob.payload_bits[slot] != bit) correct = false;
                        ++slot;
                    }
                }
                ++gobs_sent;
                if (correct) ++gobs_correct;
            }
        }
        for (const coding::Block_decision decision : result.decisions) {
            ++blocks;
            if (decision == coding::Block_decision::unknown) ++unknown_blocks;
        }
    }

    const auto ratio = [](std::size_t part, std::size_t whole) {
        return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
    };
    const double payload_ber = ratio(payload_errors, payload_bits);
    const double counted_s = static_cast<double>(data_frames) / config.inframe.data_frame_rate();
    const core::Stage_metrics* link_metrics = find_stage(episode.pipeline, "link");
    episode.captures_dropped = link.captures_dropped();

    // The paper's gray rig loses about 1% of GOBs; a payload BER this high
    // means the graph no longer demodulates.
    constexpr double max_payload_ber = 0.05;
    Outcome& outcome = episode.outcome;
    outcome.passed = !truth_missing && data_frames == expected_frames && payload_bits > 0
                     && payload_ber <= max_payload_ber;
    outcome.check = outcome.passed
                        ? "decoded payload checked against the transmitted block bits of "
                              + std::to_string(data_frames) + " data frames"
                    : truth_missing || data_frames != expected_frames
                        ? "decoded data frames do not cover the transmitted ones"
                        : "payload BER above " + std::to_string(max_payload_ber);
    outcome.values = {
        {"goodput_kbps", counted_s > 0.0 ? static_cast<double>(good_bits) / counted_s / 1000.0
                                         : 0.0},
        {"payload_ber", payload_ber},
        {"fail_ratio", 1.0 - ratio(gobs_correct, gobs_sent)},
        {"gobs_sent", static_cast<double>(gobs_sent)},
        {"gobs_correct", static_cast<double>(gobs_correct)},
        {"decode.data_frames", static_cast<double>(data_frames)},
        {"decode.available_gob_ratio", available.mean()},
        {"decode.unknown_block_ratio", ratio(unknown_blocks, blocks)},
        {"link.display_frames", static_cast<double>(link_metrics->tokens_in)},
        {"link.captures", static_cast<double>(link_metrics->tokens_out)},
        {"link.captures_dropped", static_cast<double>(link.captures_dropped())},
        {"link.observed_frame_ratio",
         observed_frame_ratio(camera, config.display.refresh_hz, total_display_frames)},
    };

    episode.sender_budget_ms = 1000.0 / config.inframe.display_fps;
    episode.receiver_budget_ms = 1000.0 / camera.fps;
    episode.sender_stage = "encode";
    episode.receiver_stage = "decode";
    episode.sim_s = static_cast<double>(episode.display_frames) / config.inframe.display_fps;
    for (const Probe_stage* probe : {video_probe, encode_probe, &link_probe, &decode_probe}) {
        episode.stages.push_back(probe->result());
    }
    return episode;
}

double observed_frame_ratio(const channel::Camera_params& camera, double refresh_hz,
                            std::int64_t display_frames)
{
    if (display_frames <= 0) return 0.0;
    const double refresh = 1.0 / refresh_hz;
    const double period = 1.0 / camera.fps;
    const double window = camera.readout_s + camera.exposure_s;
    std::int64_t observed = 0;
    for (std::int64_t i = 0; i < display_frames; ++i) {
        const double from = static_cast<double>(i) * refresh;
        const double to = from + refresh;
        // Captures whose window [start, start + window) could reach [from, to).
        const double phase = camera.phase_offset_s;
        const auto first = std::max<std::int64_t>(
            0, static_cast<std::int64_t>(std::floor((from - phase - window) / period)));
        const auto last = static_cast<std::int64_t>(std::ceil((to - phase) / period));
        for (std::int64_t k = first; k <= last; ++k) {
            const double start = phase + static_cast<double>(k) * period;
            if (start < to && start + window > from) {
                ++observed;
                break;
            }
        }
    }
    return static_cast<double>(observed) / static_cast<double>(display_frames);
}

} // namespace inframe::perfbench
