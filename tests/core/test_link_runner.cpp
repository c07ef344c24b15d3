#include "core/link_runner.hpp"

#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

namespace {

using namespace inframe;
using namespace inframe::core;

// Small, fast rig: 480x270 screen, same-resolution sensor, clean optics.
Link_experiment_config clean_rig(std::shared_ptr<const video::Video_source> source)
{
    Link_experiment_config config;
    config.video = std::move(source);
    config.inframe = paper_config(480, 270);
    config.inframe.tau = 8;
    config.camera.sensor_width = 480;
    config.camera.sensor_height = 270;
    config.camera.fps = 30.0;
    config.camera.exposure_s = 1.0 / 120.0;
    config.camera.readout_s = 0.0;
    config.camera.optical_blur_sigma = 0.0;
    config.camera.offset_x_px = 0.0;
    config.camera.offset_y_px = 0.0;
    config.camera.shot_noise_scale = 0.0;
    config.camera.read_noise_sigma = 0.0;
    config.camera.quantize = false;
    config.display.response_persistence = 0.0;
    config.display.black_level = 0.0;
    config.auto_exposure = false;
    config.duration_s = 0.5;
    return config;
}

TEST(LinkRunner, CleanChannelIsLossless)
{
    const auto config = clean_rig(video::make_dark_gray_video(480, 270));
    const auto result = run_link_experiment(config);
    EXPECT_GT(result.data_frames, 0);
    EXPECT_DOUBLE_EQ(result.available_gob_ratio, 1.0);
    EXPECT_DOUBLE_EQ(result.gob_error_rate, 0.0);
    EXPECT_DOUBLE_EQ(result.block_error_rate, 0.0);
    EXPECT_DOUBLE_EQ(result.trusted_bit_error_rate, 0.0);
    EXPECT_NEAR(result.goodput_kbps, result.raw_rate_kbps, 0.01);
}

TEST(LinkRunner, RawRateMatchesConfig)
{
    const auto config = clean_rig(video::make_dark_gray_video(480, 270));
    const auto result = run_link_experiment(config);
    // 1125 bits x 120/8 = 16.875 kbps.
    EXPECT_NEAR(result.raw_rate_kbps, 16.875, 1e-9);
}

TEST(LinkRunner, SensorNoiseDegradesGracefullyNotWrongly)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    config.camera.shot_noise_scale = 0.3;
    config.camera.read_noise_sigma = 2.0;
    config.camera.quantize = true;
    const auto result = run_link_experiment(config);
    // Noise may cost availability, but trusted bits stay correct.
    EXPECT_GT(result.available_gob_ratio, 0.5);
    EXPECT_LT(result.trusted_bit_error_rate, 0.01);
}

TEST(LinkRunner, LongExposureCancelsThePattern)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    // Exposure spanning a complete +D/-D pair: data cancels, nothing
    // decodes (but nothing decodes *wrongly* either).
    config.camera.exposure_s = 2.0 / 120.0;
    const auto result = run_link_experiment(config);
    EXPECT_LT(result.available_gob_ratio, 0.05);
    EXPECT_LT(result.block_error_rate, 0.05);
}

TEST(LinkRunner, SmallerTauRaisesRawAndGoodput)
{
    auto fast = clean_rig(video::make_dark_gray_video(480, 270));
    fast.inframe.tau = 8;
    auto slow = clean_rig(video::make_dark_gray_video(480, 270));
    slow.inframe.tau = 16;
    const auto fast_result = run_link_experiment(fast);
    const auto slow_result = run_link_experiment(slow);
    EXPECT_NEAR(fast_result.goodput_kbps / slow_result.goodput_kbps, 2.0, 0.2);
}

TEST(LinkRunner, ValidatesInputs)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    config.video = nullptr;
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);

    config = clean_rig(video::make_dark_gray_video(480, 270));
    config.duration_s = 0.0;
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);

    config = clean_rig(video::make_dark_gray_video(960, 540)); // size mismatch
    EXPECT_THROW(run_link_experiment(config), util::Contract_violation);
}

TEST(LinkRunner, DeterministicForFixedSeeds)
{
    auto config = clean_rig(video::make_dark_gray_video(480, 270));
    config.camera.shot_noise_scale = 0.2;
    const auto a = run_link_experiment(config);
    const auto b = run_link_experiment(config);
    EXPECT_DOUBLE_EQ(a.goodput_kbps, b.goodput_kbps);
    EXPECT_DOUBLE_EQ(a.available_gob_ratio, b.available_gob_ratio);
}

// --- erasure-aware decoding on an impaired link -----------------------------

// Textured video, two occluders and capture drops: occluded and ambiguous
// blocks give the erasure-aware path single-erasure GOBs to fill.
Link_experiment_config impaired_rig(Detector detector, bool erasure_aware)
{
    Link_experiment_config config;
    config.video = video::make_sunrise_video(480, 270);
    config.inframe = paper_config(480, 270);
    config.inframe.geometry = coding::fitted_geometry(480, 270, 2);
    config.inframe.tau = 12;
    config.camera.sensor_width = 480;
    config.camera.sensor_height = 270;
    config.auto_exposure = false;
    config.impairments.drop_probability = 0.1;
    config.impairments.occlusion_fraction = 0.08;
    config.impairments.occlusion_count = 2;
    config.detector = detector;
    config.erasure_aware = erasure_aware;
    config.duration_s = 1.0;
    return config;
}

class ImpairedLinkKnobs : public ::testing::TestWithParam<std::tuple<Detector, bool>> {};

TEST_P(ImpairedLinkKnobs, ErasureAwareFlagReachesTheDecoder)
{
    const auto [detector, erasure_aware] = GetParam();
    const auto result = run_link_experiment(impaired_rig(detector, erasure_aware));
    const auto other = run_link_experiment(impaired_rig(detector, !erasure_aware));
    ASSERT_GT(result.data_frames, 0);
    // Only the erasure-aware path fills GOBs from parity.
    if (erasure_aware) {
        EXPECT_GT(result.recovered_gob_ratio, 0.0);
    }
    else {
        EXPECT_EQ(result.recovered_gob_ratio, 0.0);
    }
    // The two settings must decode the same captures differently.
    EXPECT_FALSE(result.payload_bit_error_rate == other.payload_bit_error_rate
                 && result.unknown_block_ratio == other.unknown_block_ratio)
        << "payload BER " << result.payload_bit_error_rate << ", unknown ratio "
        << result.unknown_block_ratio << " at both settings";
}

INSTANTIATE_TEST_SUITE_P(
    DetectorByErasureAware, ImpairedLinkKnobs,
    ::testing::Combine(::testing::Values(Detector::noise_level, Detector::matched),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Detector, bool>>& info) {
        return std::string(std::get<0>(info.param) == Detector::matched ? "matched"
                                                                        : "noise_level")
               + (std::get<1>(info.param) ? "_erasure" : "_hard");
    });

TEST(FlickerRunner, InframeEncodingIsNearInvisible)
{
    Flicker_experiment_config config;
    config.video = video::make_dark_gray_video(480, 270);
    config.inframe = paper_config(480, 270);
    config.inframe.tau = 12;
    config.duration_s = 1.0;
    config.observers = 4;
    config.options.max_sites = 256;
    const auto result = run_flicker_experiment(config);
    ASSERT_EQ(result.scores.size(), 4u);
    EXPECT_LT(result.mean_score, 1.5);
}

TEST(FlickerRunner, CustomProducerOverridesEncoder)
{
    // A producer that flashes the whole screen at 30 Hz must score far
    // worse than the InFrame encoder on the same video.
    Flicker_experiment_config config;
    config.video = video::make_dark_gray_video(480, 270);
    config.inframe = paper_config(480, 270);
    config.duration_s = 1.0;
    config.observers = 4;
    config.options.max_sites = 256;
    config.frame_producer = [](const img::Imagef& video_frame, std::int64_t j) {
        img::Imagef out = video_frame;
        const float offset = (j % 4 < 2) ? 25.0f : -25.0f;
        out.transform([&](float v) { return std::clamp(v + offset, 0.0f, 255.0f); });
        return out;
    };
    const auto flashing = run_flicker_experiment(config);
    EXPECT_GT(flashing.mean_score, 2.0);
}

TEST(FlickerRunner, Validation)
{
    Flicker_experiment_config config;
    config.video = nullptr;
    EXPECT_THROW(run_flicker_experiment(config), util::Contract_violation);
}

} // namespace
