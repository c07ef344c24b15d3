#include "channel/link.hpp"

#include "imgproc/image_ops.hpp"
#include "imgproc/warp.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace inframe::channel;
using inframe::img::Imagef;

constexpr int screen_w = 48;
constexpr int screen_h = 27;

Display_params ideal_display()
{
    Display_params d;
    d.response_persistence = 0.0;
    d.black_level = 0.0;
    return d;
}

Camera_params ideal_camera()
{
    Camera_params c;
    c.fps = 30.0; // locked to the display for deterministic timing tests
    c.sensor_width = 24;
    c.sensor_height = 12;
    c.exposure_s = 1.0 / 120.0;
    c.readout_s = 0.0;
    c.optical_blur_sigma = 0.0;
    c.offset_x_px = 0.0;
    c.offset_y_px = 0.0;
    c.shot_noise_scale = 0.0;
    c.read_noise_sigma = 0.0;
    c.quantize = false;
    return c;
}

std::vector<Imagef> solid_frames(int count, float level)
{
    return std::vector<Imagef>(static_cast<std::size_t>(count),
                               Imagef(screen_w, screen_h, 1, level));
}

TEST(Link, CaptureRateIsCameraFps)
{
    // 120 display frames = 1 second -> 30 captures (the 30th completes
    // exactly at t = 29/30 + exposure < 1 s).
    const auto captures = run_link(ideal_display(), ideal_camera(), solid_frames(120, 100.0f));
    EXPECT_EQ(captures.size(), 30u);
    for (std::size_t k = 0; k < captures.size(); ++k) {
        EXPECT_EQ(captures[k].index, static_cast<std::int64_t>(k));
        EXPECT_NEAR(captures[k].start_time, static_cast<double>(k) / 30.0, 1e-12);
    }
}

TEST(Link, AlignedShortExposureSamplesOneDisplayFrame)
{
    // Phase-aligned 1/120 s exposure: capture k sees exactly display frame
    // 4k. Mark each display frame with its index as a level.
    std::vector<Imagef> frames;
    for (int i = 0; i < 48; ++i) frames.emplace_back(screen_w, screen_h, 1, static_cast<float>(i));
    const auto captures = run_link(ideal_display(), ideal_camera(), frames);
    ASSERT_GE(captures.size(), 3u);
    for (std::size_t k = 0; k < captures.size(); ++k) {
        const double expected = static_cast<double>(4 * k);
        EXPECT_NEAR(inframe::img::mean(captures[k].image), expected, 1e-3);
    }
}

TEST(Link, TwoFrameExposureAveragesComplementaryPair)
{
    // Exposure spanning a +D/-D pair cancels the data: the integrated
    // level is the plain video level. This is why InFrame needs a short
    // exposure (3.2, rolling shutter discussion).
    auto camera = ideal_camera();
    camera.exposure_s = 2.0 / 120.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        const float level = 127.0f + (i % 2 == 0 ? 20.0f : -20.0f);
        frames.emplace_back(screen_w, screen_h, 1, level);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 2u);
    for (const auto& capture : captures) {
        EXPECT_NEAR(inframe::img::mean(capture.image), 127.0, 1e-3);
    }
}

TEST(Link, ShortExposureKeepsComplementaryAmplitude)
{
    auto camera = ideal_camera();
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        const float level = 127.0f + (i % 2 == 0 ? 20.0f : -20.0f);
        frames.emplace_back(screen_w, screen_h, 1, level);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    EXPECT_NEAR(inframe::img::mean(captures[0].image), 147.0, 1e-3);
}

TEST(Link, RollingShutterMixesFramesAcrossRows)
{
    // Display alternates black/white every refresh; readout skew of one
    // refresh period makes top rows see a different frame mix than bottom
    // rows -> strong vertical gradient/banding inside a single capture.
    auto camera = ideal_camera();
    camera.sensor_height = 24;
    camera.readout_s = 1.0 / 120.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        frames.emplace_back(screen_w, screen_h, 1, i % 2 == 0 ? 0.0f : 200.0f);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    const auto& image = captures[0].image;
    const double top = inframe::img::mean_region(image, 0, 0, image.width(), 2);
    const double bottom =
        inframe::img::mean_region(image, 0, image.height() - 2, image.width(), 2);
    EXPECT_GT(std::abs(top - bottom), 100.0);
}

TEST(Link, GlobalShutterHasNoBanding)
{
    auto camera = ideal_camera();
    camera.sensor_height = 24;
    camera.readout_s = 0.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) {
        frames.emplace_back(screen_w, screen_h, 1, i % 2 == 0 ? 0.0f : 200.0f);
    }
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    const auto& image = captures[0].image;
    const double top = inframe::img::mean_region(image, 0, 0, image.width(), 2);
    const double bottom =
        inframe::img::mean_region(image, 0, image.height() - 2, image.width(), 2);
    EXPECT_NEAR(top, bottom, 1e-3);
}

TEST(Link, PhaseOffsetShiftsCaptureTimes)
{
    auto camera = ideal_camera();
    camera.phase_offset_s = 0.01;
    const auto captures = run_link(ideal_display(), camera, solid_frames(120, 50.0f));
    ASSERT_GE(captures.size(), 1u);
    EXPECT_NEAR(captures[0].start_time, 0.01, 1e-12);
}

TEST(Link, MisalignedPhaseBlendsAdjacentFrames)
{
    // Exposure starting halfway into a display frame sees half of each
    // neighbour.
    auto camera = ideal_camera();
    camera.phase_offset_s = 0.5 / 120.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 12; ++i) frames.emplace_back(screen_w, screen_h, 1, static_cast<float>(10 * i));
    const auto captures = run_link(ideal_display(), camera, frames);
    ASSERT_GE(captures.size(), 1u);
    EXPECT_NEAR(inframe::img::mean(captures[0].image), 5.0, 1e-3);
}

TEST(Link, NoiseIsDeterministicPerSeed)
{
    auto camera = ideal_camera();
    camera.read_noise_sigma = 2.0;
    camera.seed = 555;
    const auto a = run_link(ideal_display(), camera, solid_frames(24, 100.0f));
    const auto b = run_link(ideal_display(), camera, solid_frames(24, 100.0f));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        const auto va = a[k].image.values();
        const auto vb = b[k].image.values();
        for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
    }
}

TEST(Link, StreamingMatchesBatch)
{
    auto camera = ideal_camera();
    Screen_camera_link link(ideal_display(), camera, screen_w, screen_h);
    std::vector<Capture> streamed;
    const auto frames = solid_frames(60, 80.0f);
    for (const auto& frame : frames) {
        for (auto& c : link.push_display_frame(frame)) streamed.push_back(std::move(c));
    }
    const auto batch = run_link(ideal_display(), camera, frames);
    ASSERT_EQ(streamed.size(), batch.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
        EXPECT_EQ(streamed[k].index, batch[k].index);
        EXPECT_DOUBLE_EQ(inframe::img::mean(streamed[k].image),
                         inframe::img::mean(batch[k].image));
    }
}

// --- lazy optics ------------------------------------------------------------
//
// The link projects only display frames some pending capture can see. The
// reference below is the eager model written out longhand: every frame is
// emitted AND projected, and each capture integrates every frame its rows
// overlap, then takes the sensor electronics and the impairment chain.
// Captures from the lazy link must match it byte for byte.

struct Eager_frame {
    Imagef sensor;
    double start_time;
    double end_time;
};

std::vector<Capture> eager_link(const Display_params& display_params,
                                const Camera_params& camera, const Impairment_config& impairments,
                                const std::vector<Imagef>& frames)
{
    Display_model display(display_params);
    const Camera_optics optics(camera, frames[0].width(), frames[0].height());
    Impairment_chain chain = make_impairment_chain(impairments);
    const double period = display.refresh_period();
    std::vector<Eager_frame> projected;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const double start = static_cast<double>(i) * period;
        projected.push_back({optics.to_sensor(display.emit(frames[i])), start, start + period});
    }
    const double stream_end = static_cast<double>(frames.size()) * period;
    const int rows = camera.sensor_height;
    std::vector<Capture> captures;
    for (std::int64_t k = 0;; ++k) {
        const double start = camera.phase_offset_s + static_cast<double>(k) / camera.fps;
        if (start + camera.readout_s + camera.exposure_s > stream_end + 1e-12) break;
        Imagef integrated(camera.sensor_width, rows, projected[0].sensor.channels(), 0.0f);
        for (int r = 0; r < rows; ++r) {
            const double row_start =
                start + (rows > 1 ? camera.readout_s * static_cast<double>(r) / (rows - 1) : 0.0);
            const double row_end = row_start + camera.exposure_s;
            auto out_row = integrated.row(r);
            for (const auto& frame : projected) {
                const double overlap = std::min(frame.end_time, row_end)
                                       - std::max(frame.start_time, row_start);
                if (overlap <= 0.0) continue;
                const auto weight = static_cast<float>(overlap / camera.exposure_s);
                const auto src_row = frame.sensor.row(r);
                for (std::size_t i = 0; i < out_row.size(); ++i) out_row[i] += weight * src_row[i];
            }
        }
        apply_sensor_noise_rows(integrated, camera, k);
        if (!chain.empty() && chain.apply(integrated, k) == Capture_fate::dropped) continue;
        captures.push_back({std::move(integrated), k, start});
    }
    return captures;
}

// Every frame differs (and the display carries persistence), so a frame
// integrated from the wrong source, or a skipped emit, shows in the bits.
std::vector<Imagef> textured_frames(int count, int width, int height)
{
    inframe::util::Prng prng(77);
    std::vector<Imagef> frames;
    for (int i = 0; i < count; ++i) {
        Imagef frame(width, height);
        for (auto& v : frame.values()) v = static_cast<float>(prng.next_double(16.0, 240.0));
        frames.push_back(std::move(frame));
    }
    return frames;
}

std::uint64_t counter_value(const inframe::telemetry::Registry& registry, const std::string& name)
{
    for (const auto& counter : registry.snapshot().counters) {
        if (counter.name == name) return counter.value;
    }
    return 0;
}

struct Lazy_case {
    std::string name;
    Camera_params camera;
    Impairment_config impairments;
};

std::vector<Lazy_case> lazy_cases()
{
    // Paper-like camera scaled down: 2:1 area resample, sub-pixel offset,
    // lens blur, shot + read noise, 8-bit quantization.
    Camera_params base;
    base.sensor_width = 32;
    base.sensor_height = 18;
    std::vector<Lazy_case> cases;
    for (const double fps : {29.97, 30.0, 24.0}) {
        Camera_params c = base;
        c.fps = fps;
        cases.push_back({"fps " + std::to_string(fps), c, {}});
    }
    for (const double phase : {0.003, 0.0125, 0.0301}) { // up to > 3 refreshes
        Camera_params c = base;
        c.phase_offset_s = phase;
        cases.push_back({"phase " + std::to_string(phase), c, {}});
    }
    {
        Camera_params c = base;
        c.readout_s = 0.0;
        c.phase_offset_s = 0.002;
        cases.push_back({"global shutter", c, {}});
    }
    {
        // A dark scene meters to the longest allowed exposure.
        Camera_params c = inframe::channel::auto_expose(base, 20.0);
        EXPECT_DOUBLE_EQ(c.exposure_s, 1.0 / 180.0);
        cases.push_back({"auto-expose max", c, {}});
    }
    {
        Camera_params c = base;
        c.sensor_to_screen = inframe::img::Homography::rect_to_quad(
            32.0, 18.0, {2.0, 1.5, 61.0, 0.5, 62.5, 35.0, 0.5, 33.5});
        cases.push_back({"perspective", c, {}});
    }
    {
        Impairment_config impairments;
        impairments.drop_probability = 0.2;
        impairments.duplicate_probability = 0.2;
        impairments.gain_drift_amplitude = 0.1;
        impairments.gain_drift_period = 5.0;
        impairments.shake_sigma_px = 0.7;
        impairments.occlusion_fraction = 0.1;
        impairments.tear_probability = 0.3;
        impairments.tear_shift_px = 3.0;
        Camera_params c = base;
        c.phase_offset_s = 0.011;
        cases.push_back({"impairments", c, impairments});
    }
    return cases;
}

TEST(LinkLazyOptics, CapturesMatchEagerProjectionBitForBit)
{
    const int width = 64;
    const int height = 36;
    const auto frames = textured_frames(60, width, height);
    const Display_params display; // default panel: persistence + black level
    for (const auto& c : lazy_cases()) {
        const auto eager = eager_link(display, c.camera, c.impairments, frames);
        ASSERT_GE(eager.size(), 4u) << c.name;
        for (const int threads : {1, 4}) {
            const inframe::util::Parallel_scope scope(threads);
            const std::string label = c.name + ", threads " + std::to_string(threads);
            inframe::telemetry::Registry registry;
            inframe::telemetry::install(&registry);
            const auto lazy = run_link(display, c.camera, frames, c.impairments);
            inframe::telemetry::install(nullptr);

            ASSERT_EQ(lazy.size(), eager.size()) << label;
            for (std::size_t k = 0; k < lazy.size(); ++k) {
                EXPECT_EQ(lazy[k].index, eager[k].index) << label;
                EXPECT_EQ(lazy[k].start_time, eager[k].start_time) << label;
                const auto a = lazy[k].image.values();
                const auto b = eager[k].image.values();
                ASSERT_TRUE(lazy[k].image.same_shape(eager[k].image)) << label;
                EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
                    << label << ", capture " << lazy[k].index;
            }

            // The sweep must exercise skipping, not just projection.
            const auto projected = counter_value(registry, "link.frames_projected");
            const auto skipped = counter_value(registry, "link.frames_skipped");
            EXPECT_EQ(projected + skipped, frames.size()) << label;
            EXPECT_GT(skipped, 0u) << label;
            EXPECT_GT(projected, 0u) << label;
        }
    }
}

TEST(LinkLazyOptics, LongExposureProjectsEveryOverlappedFrame)
{
    // Exposure of a whole capture interval leaves no frame unobserved: the
    // skip predicate must not drop any of them.
    auto camera = ideal_camera();
    camera.exposure_s = 1.0 / 30.0;
    std::vector<Imagef> frames;
    for (int i = 0; i < 24; ++i) frames.emplace_back(screen_w, screen_h, 1, static_cast<float>(i));
    inframe::telemetry::Registry registry;
    inframe::telemetry::install(&registry);
    const auto captures = run_link(ideal_display(), camera, frames);
    inframe::telemetry::install(nullptr);
    ASSERT_EQ(captures.size(), 6u);
    for (std::size_t k = 0; k < captures.size(); ++k) {
        EXPECT_NEAR(inframe::img::mean(captures[k].image), 4.0 * k + 1.5, 1e-3);
    }
    EXPECT_EQ(counter_value(registry, "link.frames_skipped"), 0u);
    EXPECT_EQ(counter_value(registry, "link.frames_projected"), frames.size());
}

TEST(Link, EmptySequenceRejected)
{
    EXPECT_THROW(run_link(ideal_display(), ideal_camera(), {}),
                 inframe::util::Contract_violation);
}

} // namespace
