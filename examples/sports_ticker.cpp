// Live-sports side channel: the paper's second application sketch —
// "comments and highlights in live sports streaming". Short, frequent
// updates (score changes, events) are pushed over the video; each update
// must arrive quickly, so this example measures per-update latency rather
// than bulk throughput, and runs over fast-moving video content.
//
// Updates exceed one data frame's payload, so each is split into parts
// with a tiny [update id | part | total] header and reassembled on the
// receiving side — the kind of application protocol a real deployment
// would layer on the InFrame frame service. The application protocol
// plugs into the stage graph at both ends: a Payload_source feeds the
// Encode_stage the current update's parts just-in-time, and a sink stage
// reassembles and timestamps them.

#include "coding/framing.hpp"
#include "core/pipeline.hpp"
#include "core/session.hpp"
#include "core/stages.hpp"
#include "imgproc/pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "video/playback.hpp"

#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace {

const std::vector<std::string>& updates()
{
    static const std::vector<std::string> list = {
        "12:03 GOAL home 1-0 (Nakamura, header)",
        "12:41 yellow card away #6",
        "15:22 sub away: #9 off, #17 on",
        "18:05 GOAL away 1-1 (Costa, penalty)",
        "21:47 corner home; shot saved",
        "24:10 GOAL home 2-1 (Nakamura again!)",
    };
    return list;
}

// Reassembles [id | part | total | bytes...] payloads into updates.
class Update_collector {
public:
    // Returns the update id if this payload completed one.
    std::optional<std::size_t> add(std::span<const std::uint8_t> payload)
    {
        if (payload.size() < 3) return std::nullopt;
        const std::size_t id = payload[0];
        const std::size_t part = payload[1];
        const std::size_t total = payload[2];
        if (total == 0 || part >= total) return std::nullopt;
        auto& slots = parts_[id];
        slots.resize(total);
        if (!slots[part].has_value()) {
            slots[part].emplace(payload.begin() + 3, payload.end());
        }
        for (const auto& slot : slots) {
            if (!slot.has_value()) return std::nullopt;
        }
        if (complete_.contains(id)) return std::nullopt;
        complete_.insert(id);
        return id;
    }

    std::string text(std::size_t id) const
    {
        std::string out;
        for (const auto& slot : parts_.at(id)) out.append(slot->begin(), slot->end());
        return out;
    }

private:
    std::map<std::size_t, std::vector<std::optional<std::vector<std::uint8_t>>>> parts_;
    std::set<std::size_t> complete_;
};

} // namespace

int main(int argc, char** argv)
{
    using namespace inframe;

    // `--trace <dir>` exports trace.json / frames.jsonl / metrics.json.
    telemetry::Session telemetry_session(telemetry::config_from_args(argc, argv));

    constexpr int width = 480;
    constexpr int height = 270;

    core::Inframe_config config = core::paper_config(width, height);
    // At this small demo resolution the camera cannot resolve the paper
    // geometry's 1-px Pixels; use 2-px Pixels instead (fewer, larger blocks).
    config.geometry = coding::fitted_geometry(width, height, /*pixel_size=*/2);
    config.tau = 10;
    config.threads = 0; // all cores; output is thread-count invariant
    const util::Parallel_scope parallel_scope(config.threads);

    // Latency favours payload over protection: the default 55% RS parity
    // leaves 1-byte parts at this frame size, so a ~38-byte update cannot
    // finish its carousel inside the 2 s it stays current. A third of the
    // codeword in parity is plenty on this clean link and fits an update
    // in a handful of parts.
    const auto codec =
        coding::Rs_framer::for_parity_fraction(config.geometry.payload_bits_per_frame(), 0.35);
    const auto part_bytes = static_cast<std::size_t>(codec.max_payload_bytes()) - 3;

    channel::Display_params display;
    channel::Camera_params camera;
    camera.sensor_width = width;
    camera.sensor_height = height;
    auto decoder_params = core::make_decoder_params(config, width, height);
    decoder_params.detector = core::Detector::matched; // texture-robust detector
    decoder_params.erasure_aware = true; // busy content: let RS consume erasures

    Update_collector collector;
    util::Running_stats latency_stats;
    std::vector<bool> received(updates().size(), false);
    std::size_t delivered = 0;

    // Just-in-time feed: when the encoder asks for data frame i, carousel
    // the parts of whichever update is current at i's air time.
    core::Encode_stage::Options encode_options;
    encode_options.payloads = [&codec, part_bytes, tau = config.tau,
                               next_sequence = std::uint32_t{0}](std::int64_t data_index) mutable {
        const double air_time = static_cast<double>(data_index * tau) / 120.0;
        const auto current =
            std::min(static_cast<std::size_t>(air_time / 2.0), updates().size() - 1);
        const auto& text = updates()[current];
        const auto total = (text.size() + part_bytes - 1) / part_bytes;
        // Stagger the carousel by one slot per pass: frame losses on this
        // channel are near-periodic, and a plain seq % total carousel can
        // phase-lock against them so the same part is always the one lost.
        const auto part = (next_sequence + next_sequence / total) % total;
        std::vector<std::uint8_t> payload = {static_cast<std::uint8_t>(current),
                                             static_cast<std::uint8_t>(part),
                                             static_cast<std::uint8_t>(total)};
        const auto begin = part * part_bytes;
        const auto end = std::min(begin + part_bytes, text.size());
        payload.insert(payload.end(), text.begin() + static_cast<std::ptrdiff_t>(begin),
                       text.begin() + static_cast<std::ptrdiff_t>(end));
        return codec.build(next_sequence++, payload);
    };

    // Receiving end: decode captures, parse frames, reassemble updates,
    // clock each completed update against its injection time.
    auto decoder = std::make_shared<core::Inframe_decoder>(decoder_params);
    auto ingest = [&, decoder](const core::Data_frame_result& result, double capture_time) {
        const auto parsed = codec.parse(result.gob.payload_bits, result.gob.payload_bit_trusted);
        if (!parsed) return;
        if (const auto id = collector.add(parsed->payload)) {
            if (received[*id]) return;
            received[*id] = true;
            ++delivered;
            const double injected = 2.0 * static_cast<double>(*id);
            const double latency = capture_time - injected;
            latency_stats.add(latency);
            std::printf("  [%6.2f s] update %zu (latency %4.0f ms): %s\n", capture_time, *id,
                        latency * 1000.0, collector.text(*id).c_str());
        }
    };

    // Fast-panning stadium content is the hard case for the decoder.
    core::Pipeline pipeline;
    pipeline.emplace_stage<core::Video_stage>(
        std::make_shared<video::Moving_bars_video>(width, height, 40, 3.0f),
        video::Playback_schedule{});
    pipeline.emplace_stage<core::Encode_stage>(config, std::move(encode_options));
    pipeline.emplace_stage<core::Link_stage>(display, camera, width, height);
    pipeline.emplace_stage<core::Function_stage>(
        "ticker",
        [decoder, ingest](core::Frame_token token) {
            for (const auto& result : decoder->push_capture(token.image, token.time_s)) {
                ingest(result, token.time_s);
            }
            std::vector<core::Frame_token> out;
            out.push_back(std::move(token)); // runtime recycles sink frames
            return out;
        },
        [decoder]() { // end of stream: the partially accumulated frame is stale
            (void)decoder->flush();
            return std::vector<core::Frame_token>{};
        });

    std::printf("Streaming %zu live updates (%zu-byte parts) over fast-moving video...\n\n",
                updates().size(), part_bytes);

    core::Pipeline_options options;
    options.frames_in_flight = 4;
    options.stop_when = [&] { return delivered == updates().size(); };
    pipeline.run(120 * 16, options);

    std::printf("\ndelivered %zu/%zu updates; latency mean %.0f ms, worst %.0f ms\n", delivered,
                updates().size(), latency_stats.mean() * 1000.0, latency_stats.max() * 1000.0);
    return delivered == updates().size() ? 0 : 1;
}
