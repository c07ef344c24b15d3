#include "channel/camera.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::channel;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

Camera_params clean_camera(int sw, int sh)
{
    Camera_params params;
    params.sensor_width = sw;
    params.sensor_height = sh;
    params.optical_blur_sigma = 0.0;
    params.offset_x_px = 0.0;
    params.offset_y_px = 0.0;
    params.shot_noise_scale = 0.0;
    params.read_noise_sigma = 0.0;
    params.quantize = false;
    return params;
}

TEST(CameraOptics, DownsamplesToSensorResolution)
{
    const auto params = clean_camera(32, 18);
    Camera_optics optics(params, 64, 36);
    const Imagef sensor = optics.to_sensor(Imagef(64, 36, 1, 99.0f));
    EXPECT_EQ(sensor.width(), 32);
    EXPECT_EQ(sensor.height(), 18);
    for (const float v : sensor.values()) EXPECT_NEAR(v, 99.0f, 1e-3f);
}

TEST(CameraOptics, PreservesMeanThroughResample)
{
    const auto params = clean_camera(40, 24);
    Camera_optics optics(params, 120, 72);
    const Imagef screen = inframe::img::checkerboard(120, 72, 6, 50.0f, 150.0f);
    const Imagef sensor = optics.to_sensor(screen);
    EXPECT_NEAR(inframe::img::mean(sensor), inframe::img::mean(screen), 1.0);
}

TEST(CameraOptics, BlurSoftensEdges)
{
    auto params = clean_camera(64, 36);
    params.optical_blur_sigma = 1.5;
    Camera_optics optics(params, 64, 36);
    Imagef screen(64, 36, 1, 0.0f);
    inframe::img::fill_rect(screen, 32, 0, 32, 36, 200.0f);
    const Imagef sensor = optics.to_sensor(screen);
    // The hard edge becomes a ramp: value at the edge is mid-level.
    EXPECT_GT(sensor(31, 18), 20.0f);
    EXPECT_LT(sensor(31, 18), 180.0f);
}

TEST(CameraOptics, MisalignmentShiftsImage)
{
    auto params = clean_camera(64, 36);
    params.offset_x_px = 3.0;
    Camera_optics optics(params, 64, 36);
    Imagef screen(64, 36, 1, 0.0f);
    inframe::img::fill_rect(screen, 10, 0, 4, 36, 100.0f);
    const Imagef sensor = optics.to_sensor(screen);
    EXPECT_NEAR(sensor(14, 18), 100.0f, 1.0f);
    EXPECT_NEAR(sensor(10, 18), 0.0f, 1.0f);
}

TEST(CameraOptics, RejectsWrongScreenSize)
{
    const auto params = clean_camera(32, 18);
    Camera_optics optics(params, 64, 36);
    EXPECT_THROW(optics.to_sensor(Imagef(60, 36)), Contract_violation);
}

TEST(CameraOptics, ParameterValidation)
{
    auto params = clean_camera(32, 18);
    params.exposure_s = 0.0;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(32, 18);
    params.exposure_s = 0.05; // exceeds 1/30 with readout
    params.readout_s = 0.0;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(32, 18);
    params.readout_s = -0.1;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(0, 18);
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);

    params = clean_camera(32, 18);
    params.gain = 0.0;
    EXPECT_THROW(Camera_optics(params, 64, 36), Contract_violation);
}

TEST(SensorNoise, CleanConfigurationIsIdentity)
{
    auto params = clean_camera(8, 8);
    Imagef image(8, 8, 1, 77.25f);
    apply_sensor_noise_rows(image, params, 0);
    for (const float v : image.values()) EXPECT_FLOAT_EQ(v, 77.25f);
}

TEST(SensorNoise, QuantizationRounds)
{
    auto params = clean_camera(8, 8);
    params.quantize = true;
    Imagef image(8, 8, 1, 77.25f);
    apply_sensor_noise_rows(image, params, 0);
    for (const float v : image.values()) EXPECT_FLOAT_EQ(v, 77.0f);
}

TEST(SensorNoise, ReadNoiseHasConfiguredSpread)
{
    auto params = clean_camera(64, 64);
    params.read_noise_sigma = 3.0;
    params.quantize = false;
    params.seed = 2;
    Imagef image(64, 64, 1, 128.0f);
    apply_sensor_noise_rows(image, params, 0);
    inframe::util::Running_stats stats;
    for (const float v : image.values()) stats.add(v);
    EXPECT_NEAR(stats.mean(), 128.0, 0.5);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.4);
}

TEST(SensorNoise, ShotNoiseGrowsWithLevel)
{
    auto params = clean_camera(64, 64);
    params.shot_noise_scale = 0.5;
    params.quantize = false;
    params.seed = 3;
    Imagef dim(64, 64, 1, 20.0f);
    Imagef bright(64, 64, 1, 220.0f);
    // Same capture index: both images draw the same noise streams.
    apply_sensor_noise_rows(dim, params, 0);
    apply_sensor_noise_rows(bright, params, 0);
    inframe::util::Running_stats s_dim;
    inframe::util::Running_stats s_bright;
    for (const float v : dim.values()) s_dim.add(v);
    for (const float v : bright.values()) s_bright.add(v);
    EXPECT_GT(s_bright.stddev(), 2.0 * s_dim.stddev());
}

TEST(AutoExpose, BrightSceneGetsReferenceExposure)
{
    const Camera_params metered = auto_expose(Camera_params{}, 180.0);
    EXPECT_NEAR(metered.exposure_s, 1.0 / 480.0, 1e-9);
    EXPECT_DOUBLE_EQ(metered.gain, 1.0);
}

TEST(AutoExpose, DarkerSceneStretchesExposure)
{
    const Camera_params metered = auto_expose(Camera_params{}, 90.0);
    EXPECT_NEAR(metered.exposure_s, 2.0 / 480.0, 1e-9);
    EXPECT_DOUBLE_EQ(metered.gain, 1.0);
}

TEST(AutoExpose, VeryDarkSceneCapsExposureAndRaisesGain)
{
    const Camera_params metered = auto_expose(Camera_params{}, 20.0);
    // Target would be 9x the reference: capped at max_exposure (1/180 s),
    // shortfall becomes gain.
    EXPECT_NEAR(metered.exposure_s, 1.0 / 180.0, 1e-9);
    EXPECT_GT(metered.gain, 2.0);
}

TEST(AutoExpose, ExposureNeverExceedsFrameInterval)
{
    Camera_params params;
    params.fps = 30.0;
    params.readout_s = 0.02; // large skew leaves ~13 ms for exposure
    const Camera_params metered = auto_expose(params, 1.0);
    EXPECT_LE(metered.exposure_s + metered.readout_s, 1.0 / params.fps + 1e-12);
}

TEST(AutoExpose, BrighterThanReferenceDoesNotReduceGain)
{
    const Camera_params metered = auto_expose(Camera_params{}, 250.0);
    EXPECT_GE(metered.gain, 1.0);
    EXPECT_LT(metered.exposure_s, 1.0 / 480.0);
}

TEST(AutoExpose, Validation)
{
    EXPECT_THROW(auto_expose(Camera_params{}, -1.0), Contract_violation);
    EXPECT_THROW(auto_expose(Camera_params{}, 100.0, 0.0), Contract_violation);
}

TEST(SensorNoise, GainScalesAndClamps)
{
    auto params = clean_camera(4, 4);
    params.gain = 2.0;
    Imagef image(4, 4, 1, 150.0f);
    apply_sensor_noise_rows(image, params, 4);
    for (const float v : image.values()) EXPECT_FLOAT_EQ(v, 255.0f);
}

} // namespace
