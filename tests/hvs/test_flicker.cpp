#include "hvs/flicker.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace {

using namespace inframe::hvs;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

constexpr int width = 96;
constexpr int height = 54;
constexpr double fps = 120.0;

std::vector<Imagef> steady_frames(float level, int count)
{
    return std::vector<Imagef>(static_cast<std::size_t>(count), Imagef(width, height, 1, level));
}

// Frames whose whole area modulates as level + amplitude * pattern(t).
std::vector<Imagef> modulated_frames(float level, float amplitude, int period_frames, int count)
{
    std::vector<Imagef> frames;
    frames.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        const float sign = (i % period_frames) < period_frames / 2 ? 1.0f : -1.0f;
        frames.emplace_back(width, height, 1, level + sign * amplitude);
    }
    return frames;
}

TEST(FlickerAssessor, SteadyVideoScoresZero)
{
    const auto frames = steady_frames(127.0f, 240);
    const auto r = assess_flicker(frames, fps, Vision_model_params{}, Observer{});
    EXPECT_EQ(r.frames_assessed, 240u);
    EXPECT_NEAR(r.score, 0.0, 1e-6);
    EXPECT_NEAR(r.peak_perceived_amplitude, 0.0, 1e-6);
    EXPECT_NEAR(r.adapt_luminance, 127.0, 0.5);
}

TEST(FlickerAssessor, SixtyHzAlternationIsInvisible)
{
    // Full-screen +-20 alternation every frame (60 Hz on a 120 Hz display):
    // the InFrame steady state, which must fuse away.
    const auto frames = modulated_frames(127.0f, 20.0f, 2, 240);
    const auto r = assess_flicker(frames, fps, Vision_model_params{}, Observer{});
    EXPECT_LT(r.score, 1.0);
}

TEST(FlickerAssessor, ThirtyHzAlternationIsClearlyVisible)
{
    // The same amplitude at 30 Hz (naive-design cadence) must flicker.
    const auto frames = modulated_frames(127.0f, 20.0f, 4, 240);
    const auto r = assess_flicker(frames, fps, Vision_model_params{}, Observer{});
    EXPECT_GT(r.score, 2.0);
}

TEST(FlickerAssessor, ScoreGrowsWithAmplitude)
{
    const auto small = modulated_frames(127.0f, 5.0f, 4, 240);
    const auto large = modulated_frames(127.0f, 40.0f, 4, 240);
    const auto r_small = assess_flicker(small, fps, Vision_model_params{}, Observer{});
    const auto r_large = assess_flicker(large, fps, Vision_model_params{}, Observer{});
    EXPECT_GT(r_large.visibility_ratio, r_small.visibility_ratio);
}

TEST(FlickerAssessor, LocalizedFlickerIsStillCaught)
{
    // Only a small patch flickers at 30 Hz; the panel verdict must follow
    // the worst region, not the average.
    std::vector<Imagef> frames;
    for (int i = 0; i < 240; ++i) {
        Imagef frame(width, height, 1, 127.0f);
        const float sign = (i % 4) < 2 ? 1.0f : -1.0f;
        inframe::img::fill_rect(frame, 10, 10, 20, 12, 127.0f + sign * 25.0f);
        frames.push_back(std::move(frame));
    }
    const auto r = assess_flicker(frames, fps, Vision_model_params{}, Observer{});
    EXPECT_GT(r.score, 1.5);
}

TEST(FlickerAssessor, FineCheckerboardFusesSpatially)
{
    // A 1-px checkerboard alternating phase at 30 Hz: spatial pooling
    // cancels most of it even at a flicker-friendly temporal rate,
    // unlike the full-field case. (Pixel-size rationale, 3.3.)
    std::vector<Imagef> checker_frames;
    std::vector<Imagef> solid_frames;
    for (int i = 0; i < 240; ++i) {
        const int phase = (i % 4) < 2 ? 0 : 1;
        checker_frames.push_back(
            inframe::img::checkerboard(width, height, 1, 107.0f, 147.0f, phase));
        const float sign = (i % 4) < 2 ? 1.0f : -1.0f;
        solid_frames.emplace_back(width, height, 1, 127.0f + sign * 20.0f);
    }
    // The test frames are tiny (96x54); scale the pooling aperture so it
    // covers the same *fraction* of the frame as the default does at the
    // paper's resolution (where one pooled aperture spans a super Pixel).
    Flicker_options options;
    options.pooling_sigma_540 = 10.0;
    const auto r_checker =
        assess_flicker(checker_frames, fps, Vision_model_params{}, Observer{}, options);
    const auto r_solid =
        assess_flicker(solid_frames, fps, Vision_model_params{}, Observer{}, options);
    EXPECT_LT(r_checker.visibility_ratio, 0.3 * r_solid.visibility_ratio);
}

TEST(FlickerAssessor, GazeDriftRevealsPhantomArray)
{
    // With steady gaze a +-delta 60 Hz checkerboard fuses; a drifting gaze
    // (saccade-like) breaks the complementary cancellation.
    std::vector<Imagef> frames;
    for (int i = 0; i < 240; ++i) {
        const int phase = i % 2;
        frames.push_back(inframe::img::checkerboard(width, height, 4, 107.0f, 147.0f, phase));
    }
    Flicker_options steady;
    Flicker_options moving;
    // 3 px/frame against 4 px cells: the retinal image beats the 60 Hz
    // alternation down to 15 Hz, squarely in the visible band.
    moving.gaze_velocity_x = 3.0;
    const auto r_steady =
        assess_flicker(frames, fps, Vision_model_params{}, Observer{}, steady);
    const auto r_moving =
        assess_flicker(frames, fps, Vision_model_params{}, Observer{}, moving);
    EXPECT_GT(r_moving.visibility_ratio, 2.0 * r_steady.visibility_ratio);
}

TEST(FlickerAssessor, SensitiveObserverScoresHigher)
{
    const auto frames = modulated_frames(127.0f, 8.0f, 4, 240);
    Observer expert;
    expert.amp_threshold = 0.6;
    Observer casual;
    casual.amp_threshold = 2.0;
    const auto r_expert = assess_flicker(frames, fps, Vision_model_params{}, expert);
    const auto r_casual = assess_flicker(frames, fps, Vision_model_params{}, casual);
    EXPECT_GT(r_expert.score, r_casual.score);
}

TEST(FlickerAssessor, FrameSizeMismatchThrows)
{
    Flicker_assessor assessor(width, height, fps, Vision_model_params{}, Observer{});
    EXPECT_THROW(assessor.push_frame(Imagef(width + 1, height)), Contract_violation);
}

TEST(FlickerAssessor, OptionValidation)
{
    Flicker_options bad;
    bad.max_sites = 0;
    EXPECT_THROW(Flicker_assessor(width, height, fps, Vision_model_params{}, Observer{}, bad),
                 Contract_violation);
    EXPECT_THROW(Flicker_assessor(0, height, fps, Vision_model_params{}, Observer{}),
                 Contract_violation);
    EXPECT_THROW(Flicker_assessor(width, height, 0.0, Vision_model_params{}, Observer{}),
                 Contract_violation);

    // Non-finite values would reach size_t/int conversions and lround.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double f : {inf, nan}) {
        EXPECT_THROW(Flicker_assessor(width, height, f, Vision_model_params{}, Observer{}),
                     Contract_violation);
    }
    const auto rejects = [](const Flicker_options& options) {
        EXPECT_THROW(
            Flicker_assessor(width, height, fps, Vision_model_params{}, Observer{}, options),
            Contract_violation);
    };
    for (const double v : {inf, -inf, nan}) {
        Flicker_options options;
        options.gaze_velocity_x = v;
        rejects(options);
        options = {};
        options.gaze_velocity_y = v;
        rejects(options);
        options = {};
        options.pooling_sigma_540 = v;
        rejects(options);
    }
    Flicker_options options;
    options.warmup_seconds = inf;
    rejects(options);
    options.warmup_seconds = nan;
    rejects(options);
    options.warmup_seconds = 1e300; // finite, but no size_t holds the frame count
    rejects(options);
}

TEST(FlickerAssessor, EmptySequenceThrows)
{
    EXPECT_THROW(assess_flicker({}, fps, Vision_model_params{}, Observer{}), Contract_violation);
}

TEST(FlickerAssessor, ResultBeforeFramesIsZero)
{
    Flicker_assessor assessor(width, height, fps, Vision_model_params{}, Observer{});
    const auto r = assessor.result();
    EXPECT_EQ(r.frames_assessed, 0u);
    EXPECT_EQ(r.score, 0.0);
}

TEST(FlickerAssessor, ComparativeModeIgnoresContentMotion)
{
    // A hard-cutting video scores as "flicker" in absolute mode but as a
    // perfect 0 in side-by-side mode when shown == reference — content
    // motion is not an artifact.
    std::vector<Imagef> frames;
    for (int i = 0; i < 200; ++i) {
        const float level = (i / 40) % 2 == 0 ? 90.0f : 170.0f; // cut every 1/3 s
        frames.emplace_back(width, height, 1, level);
    }
    Flicker_assessor absolute(width, height, fps, Vision_model_params{}, Observer{});
    Flicker_assessor comparative(width, height, fps, Vision_model_params{}, Observer{});
    for (const auto& frame : frames) {
        absolute.push_frame(frame);
        comparative.push_frame_pair(frame, frame);
    }
    EXPECT_GT(absolute.result().visibility_ratio, 1.0);
    EXPECT_NEAR(comparative.result().visibility_ratio, 0.0, 1e-9);
}

TEST(FlickerAssessor, ComparativeModeStillCatchesArtifactsOnMovingContent)
{
    // Same cutting video, but the shown version carries a 30 Hz full-field
    // artifact: the comparative assessor must flag it.
    Flicker_assessor comparative(width, height, fps, Vision_model_params{}, Observer{});
    for (int i = 0; i < 240; ++i) {
        const float level = (i / 40) % 2 == 0 ? 90.0f : 170.0f;
        const Imagef reference(width, height, 1, level);
        const float artifact = (i % 4) < 2 ? 15.0f : -15.0f;
        const Imagef shown(width, height, 1, level + artifact);
        comparative.push_frame_pair(shown, reference);
    }
    EXPECT_GT(comparative.result().score, 2.0);
}

TEST(FlickerAssessor, ReferenceSizeMismatchThrows)
{
    Flicker_assessor assessor(width, height, fps, Vision_model_params{}, Observer{});
    EXPECT_THROW(assessor.push_frame_pair(Imagef(width, height), Imagef(width + 2, height)),
                 Contract_violation);
}

TEST(FlickerPanel, ReportsMeanAndSpread)
{
    const auto frames = modulated_frames(127.0f, 12.0f, 4, 200);
    const auto panel = make_observer_panel(8, 42);
    const auto result =
        assess_flicker_panel(frames, fps, Vision_model_params{}, panel);
    ASSERT_EQ(result.scores.size(), 8u);
    EXPECT_GT(result.mean_score, 0.5);
    EXPECT_GE(result.stddev_score, 0.0);
    for (const double s : result.scores) {
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 4.0);
    }
}

TEST(FlickerPanel, EmptyPanelThrows)
{
    const auto frames = steady_frames(127.0f, 10);
    EXPECT_THROW(assess_flicker_panel(frames, fps, Vision_model_params{}, {}),
                 Contract_violation);
}

// --- input paths ----------------------------------------------------------

bool same_bits(const Flicker_result& a, const Flicker_result& b)
{
    return std::bit_cast<std::uint64_t>(a.score) == std::bit_cast<std::uint64_t>(b.score)
           && std::bit_cast<std::uint64_t>(a.visibility_ratio)
                  == std::bit_cast<std::uint64_t>(b.visibility_ratio)
           && std::bit_cast<std::uint64_t>(a.peak_perceived_amplitude)
                  == std::bit_cast<std::uint64_t>(b.peak_perceived_amplitude)
           && std::bit_cast<std::uint64_t>(a.adapt_luminance)
                  == std::bit_cast<std::uint64_t>(b.adapt_luminance)
           && a.frames_assessed == b.frames_assessed;
}

std::string describe(const Flicker_result& r)
{
    return "score " + std::to_string(r.score) + " ratio " + std::to_string(r.visibility_ratio)
           + " peak " + std::to_string(r.peak_perceived_amplitude);
}

// RGB frames: a colour gradient with a 30 Hz tint flicker in one patch.
std::vector<Imagef> rgb_frames(int count)
{
    std::vector<Imagef> frames;
    for (int i = 0; i < count; ++i) {
        Imagef frame(width, height, 3);
        for (int y = 0; y < height; ++y) {
            for (int x = 0; x < width; ++x) {
                frame(x, y, 0) = 40.0f + 2.0f * static_cast<float>(x);
                frame(x, y, 1) = 90.0f + 1.5f * static_cast<float>(y);
                frame(x, y, 2) = 160.0f - static_cast<float>(x + y);
            }
        }
        const float sign = (i % 4) < 2 ? 1.0f : -1.0f;
        inframe::img::fill_rect_rgb(frame, 20, 10, 30, 20, 120.0f + 12.0f * sign, 100.0f,
                                    80.0f - 6.0f * sign);
        frames.push_back(std::move(frame));
    }
    return frames;
}

TEST(FlickerInput, RgbFrameMatchesItsGrayConversion)
{
    const auto rgb = rgb_frames(120);
    std::vector<Imagef> gray;
    for (const auto& frame : rgb) gray.push_back(inframe::img::to_gray(frame));
    const Imagef rgb_reference = rgb_frames(1)[0];
    const Imagef gray_reference = inframe::img::to_gray(rgb_reference);

    Flicker_options drift;
    drift.gaze_velocity_x = 0.5;
    for (const auto& options : {Flicker_options{}, drift}) {
        Flicker_assessor absolute_rgb(width, height, fps, Vision_model_params{}, Observer{},
                                      options);
        Flicker_assessor absolute_gray(width, height, fps, Vision_model_params{}, Observer{},
                                       options);
        Flicker_assessor pair_rgb(width, height, fps, Vision_model_params{}, Observer{},
                                  options);
        Flicker_assessor pair_gray(width, height, fps, Vision_model_params{}, Observer{},
                                   options);
        for (std::size_t i = 0; i < rgb.size(); ++i) {
            absolute_rgb.push_frame(rgb[i]);
            absolute_gray.push_frame(gray[i]);
            pair_rgb.push_frame_pair(rgb[i], rgb_reference);
            pair_gray.push_frame_pair(gray[i], gray_reference);
        }
        EXPECT_GT(absolute_gray.result().visibility_ratio, 0.0);
        EXPECT_TRUE(same_bits(absolute_rgb.result(), absolute_gray.result()))
            << describe(absolute_rgb.result()) << " vs " << describe(absolute_gray.result());
        EXPECT_TRUE(same_bits(pair_rgb.result(), pair_gray.result()))
            << describe(pair_rgb.result()) << " vs " << describe(pair_gray.result());
    }
}

TEST(FlickerInput, PairModeWithGazeDrift)
{
    // Content that moves under a drifting gaze: a checkerboard alternating
    // at 60 Hz. Side by side against itself it cancels exactly; a 30 Hz
    // artifact on the shown frame is still caught, and drift changes what
    // the sites see.
    Flicker_options drift;
    drift.gaze_velocity_x = 3.0;
    drift.gaze_velocity_y = -0.5;
    Flicker_assessor same(width, height, fps, Vision_model_params{}, Observer{}, drift);
    Flicker_assessor artifact(width, height, fps, Vision_model_params{}, Observer{}, drift);
    Flicker_assessor steady(width, height, fps, Vision_model_params{}, Observer{});
    for (int i = 0; i < 180; ++i) {
        const Imagef reference =
            inframe::img::checkerboard(width, height, 4, 107.0f, 147.0f, i % 2);
        Imagef shown = reference;
        inframe::img::fill_rect(shown, 30, 12, 24, 20, (i % 4) < 2 ? 140.0f : 114.0f);
        same.push_frame_pair(reference, reference);
        artifact.push_frame_pair(shown, reference);
        steady.push_frame_pair(shown, reference);
    }
    EXPECT_EQ(same.result().visibility_ratio, 0.0);
    EXPECT_GT(artifact.result().score, 1.0);
    EXPECT_FALSE(same_bits(artifact.result(), steady.result()));
}

TEST(FlickerInput, TinyFramesMatchAFullFieldBitForBit)
{
    // A uniform field pools to the same value wherever the aperture sits
    // and however its taps are clamped, so 1x1 and 1-pixel-wide frames
    // (whose taps clamp on every edge, and which skip the wrap on the
    // 1-pixel axis) must reproduce the full-size result exactly; all three
    // grids rank their worst 10 sites.
    const auto full = modulated_frames(127.0f, 10.0f, 4, 150);
    Flicker_options drift;
    drift.gaze_velocity_x = 1.5;
    drift.gaze_velocity_y = -2.25;
    for (const auto& options : {Flicker_options{}, drift}) {
        const auto expected = assess_flicker(full, fps, Vision_model_params{}, Observer{},
                                             options);
        ASSERT_GT(expected.visibility_ratio, 1.0);
        for (const auto& [w, h] : {std::pair{1, 1}, std::pair{1, 20}, std::pair{20, 1}}) {
            std::vector<Imagef> frames;
            for (const auto& frame : full) frames.emplace_back(w, h, 1, frame(0, 0));
            const auto r = assess_flicker(frames, fps, Vision_model_params{}, Observer{},
                                          options);
            EXPECT_TRUE(same_bits(r, expected))
                << w << "x" << h << ": " << describe(r) << " vs " << describe(expected);

            // Side by side against a steady reference of the same size.
            Flicker_assessor pair(w, h, fps, Vision_model_params{}, Observer{}, options);
            for (const auto& frame : frames) pair.push_frame_pair(frame, Imagef(w, h, 1, 127.0f));
            EXPECT_GT(pair.result().visibility_ratio, 1.0) << w << "x" << h;
        }
    }
}

TEST(FlickerInput, MidStreamResultLeavesTheFinalResultUnchanged)
{
    const auto frames = modulated_frames(127.0f, 6.0f, 4, 160);
    Flicker_options drift;
    drift.gaze_velocity_x = 0.75;
    for (const auto& options : {Flicker_options{}, drift}) {
        Flicker_assessor polled(width, height, fps, Vision_model_params{}, Observer{}, options);
        Flicker_assessor plain(width, height, fps, Vision_model_params{}, Observer{}, options);
        for (std::size_t i = 0; i < frames.size(); ++i) {
            polled.push_frame(frames[i]);
            plain.push_frame(frames[i]);
            if (i % 7 == 0) {
                const auto partial = polled.result();
                EXPECT_EQ(partial.frames_assessed, i + 1);
            }
        }
        EXPECT_TRUE(same_bits(polled.result(), plain.result()))
            << describe(polled.result()) << " vs " << describe(plain.result());
        // Reading twice changes nothing either.
        EXPECT_TRUE(same_bits(polled.result(), polled.result()));
    }
}

} // namespace
