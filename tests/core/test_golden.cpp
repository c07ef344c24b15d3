// Golden regression vectors: CRC32 fingerprints of the encoder's display
// frames and of the decoded payload for two frozen reference configs, bit
// pins of the flicker assessor, and CRC32s of synthesized sunrise frames
// (bottom of the file).
//
// These pin the *exact* bit-level behaviour of the whole encode path
// (chessboard embed, complementary pair, GOB parity) and of the clean
// channel decode. Any intentional change to the modulation or coding
// layers will trip them; when that happens, verify the change is wanted,
// then refresh the constants from the values the failing test prints
// (run: test_core --gtest_filter='Golden*').

#include "coding/parity.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/link_runner.hpp"
#include "core/session.hpp"
#include "core/stages.hpp"
#include "hvs/flicker.hpp"
#include "imgproc/draw.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "video/playback.hpp"
#include "video/source.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace inframe::core;
using inframe::img::Imagef;
using inframe::util::Prng;

struct Golden_case {
    const char* name;
    int pixel_size;
    int tau;
    float delta;
    float video_level;
    std::uint64_t payload_seed;
    std::uint32_t display_crc; // CRC32 over all tau quantized display frames
    std::uint32_t payload_crc; // CRC32 over the decoded payload bits
};

// Frozen reference fingerprints. Regenerate only for an intentional
// modulation/coding change (see header comment).
constexpr Golden_case golden_cases[] = {
    {"p2_tau12", 2, 12, 20.0f, 127.0f, 0x00d5'eed5'eed5'eed5ULL, 0xa88f30d9u, 0xfc0d280au},
    {"p1_tau8", 1, 8, 40.0f, 180.0f, 0x1bad'b002'0000'0001ULL, 0x19d91409u, 0x80ea58ccu},
};

class Golden : public ::testing::TestWithParam<Golden_case> {};

TEST_P(Golden, DisplayFramesAndDecodedPayloadMatchFrozenCrcs)
{
    const auto& g = GetParam();
    auto config = paper_config(480, 270);
    config.geometry = inframe::coding::fitted_geometry(480, 270, g.pixel_size);
    config.tau = g.tau;
    config.delta = g.delta;

    Inframe_encoder encoder(config);
    Prng prng(g.payload_seed);
    const auto payload =
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
    encoder.queue_payload(payload);
    encoder.queue_payload(
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame())));
    const auto truth = inframe::coding::encode_gob_parity(config.geometry, payload);

    Inframe_decoder decoder(make_decoder_params(config, 480, 270));
    const Imagef video(480, 270, 1, g.video_level);

    std::vector<std::uint8_t> display_bytes;
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 2 * g.tau; ++j) {
        const Imagef frame = encoder.next_display_frame(video);
        if (j < g.tau) {
            // Fingerprint what the panel would show: the quantized frame.
            const auto u8 = inframe::img::to_u8(frame);
            display_bytes.insert(display_bytes.end(), u8.values().begin(), u8.values().end());
        }
        if (j % 2 == 0) {
            for (auto& r : decoder.push_capture(frame, j / 120.0)) {
                results.push_back(std::move(r));
            }
        }
    }
    if (auto last = decoder.flush()) results.push_back(std::move(*last));

    ASSERT_FALSE(results.empty());
    const auto& r0 = results.front();
    ASSERT_DOUBLE_EQ(r0.gob.available_ratio, 1.0)
        << g.name << ": golden configs decode cleanly by construction";
    const std::uint32_t display_crc = inframe::util::crc32(display_bytes);
    const std::uint32_t payload_crc = inframe::util::crc32(r0.gob.payload_bits);

    EXPECT_EQ(display_crc, g.display_crc)
        << g.name << ": display frame stream changed; new CRC 0x" << std::hex << display_crc;
    EXPECT_EQ(payload_crc, g.payload_crc)
        << g.name << ": decoded payload changed; new CRC 0x" << std::hex << payload_crc;

    // The frozen payload CRC must agree with the transmitted payload —
    // golden vectors pin behaviour, not bugs.
    std::size_t mismatches = 0;
    for (std::size_t b = 0; b < payload.size(); ++b) {
        mismatches += r0.gob.payload_bits[b] != payload[b];
    }
    EXPECT_EQ(mismatches, 0u) << g.name;
}

INSTANTIATE_TEST_SUITE_P(ReferenceConfigs, Golden, ::testing::ValuesIn(golden_cases),
                         [](const auto& info) { return info.param.name; });

// --- flicker assessor ----------------------------------------------------
//
// Bit pins of the simulated observer (src/hvs): score, visibility ratio and
// worst-site perceived amplitude compared as IEEE-754 bit patterns. They
// were frozen before the assessor's per-site filters became one
// structure-of-arrays bank, and hold the refactor to the old bits. Refresh
// only for an intentional change to the vision model, from the values the
// failing test prints (run: test_core --gtest_filter='FlickerGolden*').

namespace flicker_golden {

using inframe::hvs::Flicker_assessor;
using inframe::hvs::Flicker_options;
using inframe::hvs::Flicker_result;
using inframe::hvs::Observer;
using inframe::hvs::Vision_model_params;

struct Result_bits {
    std::uint64_t score;
    std::uint64_t visibility_ratio;
    std::uint64_t peak_perceived_amplitude;
};

std::uint64_t bits_of(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

void expect_bits(const Flicker_result& r, const Result_bits& frozen, const std::string& label)
{
    EXPECT_EQ(bits_of(r.score), frozen.score)
        << label << ": score changed; new bits 0x" << std::hex << bits_of(r.score) << " ("
        << r.score << ")";
    EXPECT_EQ(bits_of(r.visibility_ratio), frozen.visibility_ratio)
        << label << ": visibility_ratio changed; new bits 0x" << std::hex
        << bits_of(r.visibility_ratio) << " (" << r.visibility_ratio << ")";
    EXPECT_EQ(bits_of(r.peak_perceived_amplitude), frozen.peak_perceived_amplitude)
        << label << ": peak_perceived_amplitude changed; new bits 0x" << std::hex
        << bits_of(r.peak_perceived_amplitude) << " (" << r.peak_perceived_amplitude << ")";
}

// bench_fig6_flicker's panel (480x270, 8 observers, 512 sites, side by
// side against the unmodified video) on the sunrise clip, one second.
Flicker_experiment_config fig6_sunrise_config()
{
    Flicker_experiment_config config;
    config.video = inframe::video::make_sunrise_video(480, 270);
    config.inframe = paper_config(480, 270);
    config.duration_s = 1.0;
    config.observers = 8;
    config.options.max_sites = 512;
    return config;
}

// One frozen result per panel observer, in make_observer_panel order.
constexpr Result_bits panel_bits[] = {
    {0x0000000000000000ULL, 0x3fd8b80d70396ee8ULL, 0x3fd363f778af5b40ULL},
    {0x0000000000000000ULL, 0x3fd32901e75bd1fcULL, 0x3fd13602a05b94c0ULL},
    {0x3fd14676dd2ebbd6ULL, 0x3fe34abc1f23a8d9ULL, 0x3fd5bfc2dbee65c0ULL},
    {0x0000000000000000ULL, 0x3fd9580c5e3bf97aULL, 0x3fd3718700ebe400ULL},
    {0x0000000000000000ULL, 0x3fdd6c499f72c2c2ULL, 0x3fd4e4f32557bcc0ULL},
    {0x0000000000000000ULL, 0x3fd815c11d780edaULL, 0x3fd2e5d84f450fc0ULL},
    {0x0000000000000000ULL, 0x3fd49a819ab74cf7ULL, 0x3fd337033a128dc0ULL},
    {0x0000000000000000ULL, 0x3fd5549d318124cbULL, 0x3fd32e20c91ba5c0ULL},
};
constexpr std::uint64_t panel_mean_score_bits = 0x3fa14676dd2ebbd6ULL;

TEST(FlickerGolden, Fig6PanelMatchesFrozenBits)
{
    const auto config = fig6_sunrise_config();
    const auto panel = run_flicker_experiment(config);
    ASSERT_EQ(panel.scores.size(), std::size(panel_bits));
    EXPECT_EQ(bits_of(panel.mean_score), panel_mean_score_bits)
        << "panel mean score changed; new bits 0x" << std::hex << bits_of(panel.mean_score);

    // The same graph assembled by hand exposes every observer's full
    // result; its scores must be run_flicker_experiment's.
    std::vector<Flicker_assessor> assessors;
    for (const auto& observer :
         inframe::hvs::make_observer_panel(config.observers, config.observer_seed)) {
        assessors.emplace_back(480, 270, config.inframe.display_fps, config.vision, observer,
                               config.options);
    }
    Pipeline pipeline;
    pipeline.emplace_stage<Video_stage>(
        config.video,
        inframe::video::Playback_schedule{config.inframe.display_fps, config.inframe.video_fps});
    Encode_stage::Options encode_options;
    encode_options.payloads = make_random_payload_source(
        config.data_seed, config.inframe.geometry.payload_bits_per_frame());
    encode_options.emit_reference = true;
    pipeline.emplace_stage<Encode_stage>(config.inframe, std::move(encode_options));
    pipeline.emplace_stage<Function_stage>("assess", [&assessors](Frame_token token) {
        for (auto& assessor : assessors) assessor.push_frame_pair(token.image, token.reference);
        std::vector<Frame_token> out;
        out.push_back(std::move(token));
        return out;
    });
    pipeline.run(std::llround(config.duration_s * config.inframe.display_fps));

    for (std::size_t i = 0; i < assessors.size(); ++i) {
        const Flicker_result r = assessors[i].result();
        const std::string label = "observer " + std::to_string(i);
        EXPECT_EQ(bits_of(r.score), bits_of(panel.scores[i])) << label;
        expect_bits(r, panel_bits[i], label);
    }
}

TEST(FlickerGolden, AbsoluteModeWithGazeDriftMatchesFrozenBits)
{
    // A 60 Hz +-4 checkerboard over a horizontal ramp, watched with a
    // diagonal drift whose negative y component exercises the wrap.
    constexpr int width = 96;
    constexpr int height = 54;
    Flicker_options options;
    options.gaze_velocity_x = 0.75;
    options.gaze_velocity_y = -0.3;
    Flicker_assessor assessor(width, height, 120.0, Vision_model_params{}, Observer{}, options);
    for (int i = 0; i < 180; ++i) {
        Imagef frame = inframe::img::checkerboard(width, height, 4, -4.0f, 4.0f, i % 2);
        for (int y = 0; y < height; ++y) {
            for (int x = 0; x < width; ++x) frame(x, y) += 60.0f + 0.05f * static_cast<float>(x);
        }
        assessor.push_frame(frame);
    }
    expect_bits(assessor.result(),
                {0x400cf11f6ee64b75ULL, 0x40188d2b2ad4f684ULL, 0x4014320eda0077b8ULL},
                "gaze drift");
}

TEST(FlickerGolden, ThreeChannelPairMatchesFrozenBits)
{
    // A warm-tinted sunrise (genuine RGB frames) shown with a 30 Hz
    // full-field artifact, side by side against the clean tinted frame.
    constexpr int width = 160;
    constexpr int height = 90;
    const inframe::video::Tinted_video video(inframe::video::make_sunrise_video(width, height),
                                             {40.0f, 20.0f, 10.0f}, {250.0f, 200.0f, 150.0f});
    Flicker_assessor assessor(width, height, 120.0, Vision_model_params{}, Observer{});
    for (int i = 0; i < 150; ++i) {
        const Imagef reference = video.frame(i / 4);
        ASSERT_EQ(reference.channels(), 3);
        Imagef shown = reference;
        const float artifact = (i % 4) < 2 ? 6.0f : -6.0f;
        for (auto& v : shown.values()) v += artifact;
        assessor.push_frame_pair(shown, reference);
    }
    expect_bits(assessor.result(),
                {0x3fea3838b50c3710ULL, 0x3fec3be9273c2e4bULL, 0x3fe3837911775680ULL},
                "three-channel pair");
}

} // namespace flicker_golden


// --- sunrise synthesis ---------------------------------------------------
//
// CRC32s of Sunrise_video's float sample bits. They were frozen before the
// sky's clouds moved to a row-wise noise evaluator and the ground texture
// to a per-source memo, and hold that rewrite to the old bits. Refresh only
// for an intentional change to the scene, from the values the failing test
// prints (run: test_core --gtest_filter='SunriseGolden*').

namespace sunrise_golden {

using inframe::video::Cached_video;
using inframe::video::Sunrise_video;

std::uint32_t frame_crc(const Imagef& frame)
{
    const std::span<const std::byte> bytes = std::as_bytes(frame.values());
    return inframe::util::crc32(
        {reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
}

struct Frame_pin {
    int width;
    int height;
    std::int64_t index;
    std::uint32_t crc;
};

// Seed 1 at 30 fps. The 480x270 indices cover the first frame, both sides
// of a one-second boundary, mid-rise, both sides of the 40 s point where
// the sun stops climbing, and a frame well past it. The small sizes cover
// a sky-only frame (1x1), one ground row (17x3) and a size that is not a
// multiple of the ground texture's 7-px lattice.
constexpr Frame_pin frame_pins[] = {
    {480, 270, 0, 0xa9208212u},    {480, 270, 29, 0x3fdcf95au},
    {480, 270, 30, 0x63c794e0u},   {480, 270, 450, 0x0b5549d9u},
    {480, 270, 1199, 0x17bcb728u}, {480, 270, 1200, 0x9f64fa49u},
    {480, 270, 5000, 0x4677979du}, {1, 1, 0, 0xb0cd025du},
    {1, 1, 450, 0xdea5a134u},      {17, 3, 0, 0x01155061u},
    {17, 3, 1200, 0xc20dcefdu},    {101, 59, 0, 0x5555ff45u},
    {101, 59, 450, 0x7aae4c9du},   {101, 59, 5000, 0x90625971u},
};

std::string label_of(const Frame_pin& pin)
{
    return std::to_string(pin.width) + "x" + std::to_string(pin.height) + " frame " +
           std::to_string(pin.index);
}

TEST(SunriseGolden, FramesMatchFrozenCrcs)
{
    for (const Frame_pin& pin : frame_pins) {
        // A fresh source per frame: nothing is carried between indices.
        const Sunrise_video video(pin.width, pin.height, 30.0, 1);
        const std::uint32_t crc = frame_crc(video.frame(pin.index));
        EXPECT_EQ(crc, pin.crc) << label_of(pin) << " changed; new CRC 0x" << std::hex << crc;
    }
}

TEST(SunriseGolden, ReusedSourceMatchesFreshSource)
{
    for (const auto& [width, height] : {std::pair{480, 270}, std::pair{101, 59}}) {
        const Sunrise_video reused(width, height, 30.0, 1);
        for (const std::int64_t index : {450, 0, 1200, 29, 5000, 30}) {
            const Sunrise_video fresh(width, height, 30.0, 1);
            EXPECT_EQ(frame_crc(reused.frame(index)), frame_crc(fresh.frame(index)))
                << width << "x" << height << " frame " << index;
        }
    }
}

TEST(SunriseGolden, CachedVideoServesTheBareSourceBits)
{
    const auto bare = std::make_shared<Sunrise_video>(101, 59, 30.0, 1);
    const Cached_video cached(std::make_shared<Sunrise_video>(101, 59, 30.0, 1));
    // Repeats, rewinds and interleaved indices: every answer must be the
    // bare source's frame for that index, whatever the cache held before.
    for (const std::int64_t index : {7, 7, 3, 7, 3, 3, 1200, 0, 1200, 7, 450, 450, 0, 5000, 7}) {
        EXPECT_EQ(frame_crc(cached.frame(index)), frame_crc(bare->frame(index)))
            << "frame " << index;
    }
}

TEST(SunriseGolden, ConcurrentFirstCallsAgree)
{
    // Two threads race into the first frame() calls of one fresh source.
    const Sunrise_video video(480, 270, 30.0, 1);
    const std::int64_t indices[] = {0, 450, 1200};
    std::vector<std::uint32_t> crcs[2];
    {
        std::thread a([&] {
            for (const std::int64_t index : indices) crcs[0].push_back(frame_crc(video.frame(index)));
        });
        std::thread b([&] {
            for (const std::int64_t index : indices) crcs[1].push_back(frame_crc(video.frame(index)));
        });
        a.join();
        b.join();
    }
    const Sunrise_video fresh(480, 270, 30.0, 1);
    for (std::size_t i = 0; i < std::size(indices); ++i) {
        const std::uint32_t expected = frame_crc(fresh.frame(indices[i]));
        EXPECT_EQ(crcs[0][i], expected) << "thread 0, frame " << indices[i];
        EXPECT_EQ(crcs[1][i], expected) << "thread 1, frame " << indices[i];
    }
}

} // namespace sunrise_golden

} // namespace
