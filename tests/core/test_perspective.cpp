// Perspective viewing: the paper's rig films the screen head-on; a real
// phone sees a keystoned quad. With a calibrated homography shared by the
// camera model and the (matched-filter) decoder, the channel must still
// deliver data.

#include "channel/link.hpp"
#include "core/decoder.hpp"
#include "core/encoder.hpp"
#include "core/session.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe;
using namespace inframe::core;
using inframe::coding::Block_decision;
using inframe::img::Homography;
using inframe::img::Imagef;
using inframe::util::Prng;

constexpr int screen_w = 480;
constexpr int screen_h = 270;

Inframe_config test_config()
{
    auto config = paper_config(screen_w, screen_h);
    config.geometry = coding::fitted_geometry(screen_w, screen_h, 2);
    config.tau = 8;
    return config;
}

// Viewing homography: the screen fills most of the sensor as a mild
// keystone (camera slightly to the left of the screen axis).
Homography keystone_sensor_to_screen()
{
    // Where the screen's corners land on the sensor...
    const std::array<double, 8> quad_on_sensor = {18.0, 10.0, 455.0, 16.0,
                                                  452.0, 252.0, 14.0, 258.0};
    const auto screen_to_sensor =
        Homography::rect_to_quad(screen_w, screen_h, quad_on_sensor);
    // ...and the inverse view: sensor coordinates -> screen coordinates.
    return screen_to_sensor.inverse();
}

struct Perspective_rig {
    Inframe_encoder encoder;
    channel::Screen_camera_link link;
    Inframe_decoder decoder;

    static channel::Display_params display()
    {
        channel::Display_params d;
        d.response_persistence = 0.0;
        d.black_level = 0.0;
        return d;
    }

    static channel::Camera_params camera(bool noisy)
    {
        channel::Camera_params c;
        c.fps = 30.0;
        c.sensor_width = screen_w;
        c.sensor_height = screen_h;
        c.exposure_s = 1.0 / 120.0;
        c.readout_s = 0.0;
        c.optical_blur_sigma = noisy ? 0.4 : 0.0;
        c.shot_noise_scale = noisy ? 0.1 : 0.0;
        c.read_noise_sigma = noisy ? 0.8 : 0.0;
        c.quantize = noisy;
        c.sensor_to_screen = keystone_sensor_to_screen();
        return c;
    }

    static Decoder_params decoder_params(const Inframe_config& config)
    {
        auto params = make_decoder_params(config, screen_w, screen_h);
        params.detector = Detector::matched;
        params.capture_to_screen = keystone_sensor_to_screen();
        return params;
    }

    explicit Perspective_rig(const Inframe_config& config, bool noisy)
        : encoder(config), link(display(), camera(noisy), screen_w, screen_h),
          decoder(decoder_params(config))
    {
    }
};

TEST(Perspective, KeystonedCaptureDecodes)
{
    const auto config = test_config();
    Perspective_rig rig(config, /*noisy=*/false);
    Prng prng(1);
    const auto payload =
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
    rig.encoder.queue_payload(payload);
    const auto truth = coding::encode_gob_parity(config.geometry, payload);

    const Imagef video(screen_w, screen_h, 1, 140.0f);
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 2 * config.tau; ++j) {
        const auto frame = rig.encoder.next_display_frame(video);
        for (const auto& capture : rig.link.push_display_frame(frame)) {
            for (auto& r : rig.decoder.push_capture(capture.image, capture.start_time)) {
                results.push_back(std::move(r));
            }
        }
    }
    ASSERT_FALSE(results.empty());
    const auto& r0 = results.front();
    EXPECT_GT(r0.gob.available_ratio, 0.9);
    int wrong = 0;
    for (std::size_t b = 0; b < truth.size(); ++b) {
        if (r0.decisions[b] == Block_decision::unknown) continue;
        const std::uint8_t bit = r0.decisions[b] == Block_decision::one ? 1 : 0;
        wrong += bit != truth[b];
    }
    EXPECT_EQ(wrong, 0);
}

TEST(Perspective, SurvivesRealisticSensor)
{
    const auto config = test_config();
    Perspective_rig rig(config, /*noisy=*/true);
    Prng prng(2);
    const auto payload =
        prng.next_bits(static_cast<std::size_t>(config.geometry.payload_bits_per_frame()));
    rig.encoder.queue_payload(payload);
    const auto truth = coding::encode_gob_parity(config.geometry, payload);

    const Imagef video(screen_w, screen_h, 1, 140.0f);
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 2 * config.tau; ++j) {
        const auto frame = rig.encoder.next_display_frame(video);
        for (const auto& capture : rig.link.push_display_frame(frame)) {
            for (auto& r : rig.decoder.push_capture(capture.image, capture.start_time)) {
                results.push_back(std::move(r));
            }
        }
    }
    ASSERT_FALSE(results.empty());
    const auto& r0 = results.front();
    EXPECT_GT(r0.gob.available_ratio, 0.7);
    int wrong = 0;
    int confident = 0;
    for (std::size_t b = 0; b < truth.size(); ++b) {
        if (r0.decisions[b] == Block_decision::unknown) continue;
        ++confident;
        const std::uint8_t bit = r0.decisions[b] == Block_decision::one ? 1 : 0;
        wrong += bit != truth[b];
    }
    EXPECT_GT(confident, 200);
    EXPECT_LT(static_cast<double>(wrong) / confident, 0.02);
}

TEST(Perspective, MiscalibratedHomographyFailsSafe)
{
    // A receiver calibrated against the WRONG quad reads a phase-shifted
    // pattern: some blocks decode as their neighbours' bits. The decoder
    // loses availability, and — decisively — the framing layer must
    // reject every such frame rather than deliver shifted garbage.
    const auto config = test_config();
    Inframe_encoder encoder(config);
    const auto codec = coding::Rs_framer::for_parity_fraction(
        config.geometry.payload_bits_per_frame(), Session_options{}.rs_parity_fraction);
    Prng prng(3);
    std::vector<std::uint8_t> payload(static_cast<std::size_t>(codec.max_payload_bytes()));
    prng.fill_bytes(payload);
    encoder.queue_payload(codec.build(0, payload));

    channel::Screen_camera_link link(Perspective_rig::display(),
                                     Perspective_rig::camera(false), screen_w, screen_h);
    auto params = Perspective_rig::decoder_params(config);
    // Calibration off by a large margin (shifted quad).
    const std::array<double, 8> wrong_quad = {60.0, 40.0, 470.0, 50.0, 460.0, 260.0, 55.0,
                                              255.0};
    params.capture_to_screen =
        img::Homography::rect_to_quad(screen_w, screen_h, wrong_quad).inverse();
    Inframe_decoder decoder(params);

    const Imagef video(screen_w, screen_h, 1, 140.0f);
    std::vector<Data_frame_result> results;
    for (int j = 0; j < 2 * config.tau; ++j) {
        const auto frame = encoder.next_display_frame(video);
        for (const auto& capture : link.push_display_frame(frame)) {
            for (auto& r : decoder.push_capture(capture.image, capture.start_time)) {
                results.push_back(std::move(r));
            }
        }
    }
    ASSERT_FALSE(results.empty());
    EXPECT_LT(results.front().gob.available_ratio, 0.8); // degraded...
    for (const auto& result : results) {                  // ...and rejected.
        EXPECT_FALSE(
            codec.parse(result.gob.payload_bits, result.gob.payload_bit_trusted).has_value());
    }
}

TEST(Perspective, NoiseLevelDetectorIsRejected)
{
    auto params = Perspective_rig::decoder_params(test_config());
    params.detector = Detector::noise_level;
    EXPECT_THROW(Inframe_decoder{params}, inframe::util::Contract_violation);
}

} // namespace
