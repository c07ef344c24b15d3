#include "channel/camera.hpp"

#include "imgproc/filter.hpp"
#include "imgproc/image_ops.hpp"
#include "imgproc/pool.hpp"
#include "imgproc/resize.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <cmath>
#include <span>

namespace inframe::channel {

Camera_optics::Camera_optics(const Camera_params& params, int screen_width, int screen_height)
    : params_(params), screen_width_(screen_width), screen_height_(screen_height)
{
    util::expects(params.fps > 0.0, "camera fps must be positive");
    util::expects(params.exposure_s > 0.0, "camera exposure must be positive");
    util::expects(params.exposure_s <= 1.0 / params.fps,
                  "camera exposure cannot exceed the frame interval");
    util::expects(params.readout_s >= 0.0, "camera readout skew must be non-negative");
    util::expects(params.readout_s + params.exposure_s <= 1.0 / params.fps,
                  "rolling-shutter capture must finish within the frame interval");
    util::expects(params.sensor_width > 0 && params.sensor_height > 0,
                  "sensor resolution must be positive");
    util::expects(params.optical_blur_sigma >= 0.0, "optical blur must be non-negative");
    util::expects(params.shot_noise_scale >= 0.0, "shot noise scale must be non-negative");
    util::expects(params.read_noise_sigma >= 0.0, "read noise must be non-negative");
    util::expects(params.gain > 0.0, "camera gain must be positive");
    util::expects(screen_width > 0 && screen_height > 0, "screen size must be positive");
}

img::Imagef Camera_optics::to_sensor(const img::Imagef& emitted) const
{
    util::expects(emitted.width() == screen_width_ && emitted.height() == screen_height_,
                  "emitted frame does not match the configured screen size");
    telemetry::Scoped_span span("camera.optics");
    img::Imagef sensor;
    if (params_.sensor_to_screen) {
        // Perspective path: each sensor pixel samples the screen through
        // the viewing homography (bilinear; the optical blur below stands
        // in for photosite integration).
        sensor = img::warp_perspective(emitted, *params_.sensor_to_screen,
                                       params_.sensor_width, params_.sensor_height);
    } else {
        // Photosite area integration: each sensor pixel averages the
        // screen area it covers.
        sensor = img::resize_area(emitted, params_.sensor_width, params_.sensor_height);
        // Sub-pixel misalignment of the projected image.
        if (params_.offset_x_px != 0.0 || params_.offset_y_px != 0.0) {
            img::Imagef shifted = img::translate(sensor, static_cast<float>(params_.offset_x_px),
                                                 static_cast<float>(params_.offset_y_px));
            img::Frame_pool::instance().recycle(std::move(sensor));
            sensor = std::move(shifted);
        }
    }
    // Lens blur.
    if (params_.optical_blur_sigma > 0.0) {
        img::Imagef blurred = img::gaussian_blur(sensor, params_.optical_blur_sigma);
        img::Frame_pool::instance().recycle(std::move(sensor));
        sensor = std::move(blurred);
    }
    return sensor;
}

Camera_params auto_expose(Camera_params params, double scene_mean_level,
                          double reference_level, double reference_exposure_s,
                          double max_exposure_s)
{
    util::expects(scene_mean_level >= 0.0, "auto_expose: scene level must be non-negative");
    util::expects(reference_level > 0.0 && reference_exposure_s > 0.0 && max_exposure_s > 0.0,
                  "auto_expose: reference parameters must be positive");
    const double level = std::max(scene_mean_level, 1.0);
    const double target = reference_exposure_s * reference_level / level;
    const double frame_limit = 1.0 / params.fps - params.readout_s;
    const double exposure =
        std::clamp(target, 1e-5, std::min(max_exposure_s, frame_limit));
    params.exposure_s = exposure;
    // Metering shortfall becomes digital gain (and amplified noise).
    params.gain *= std::max(target / exposure, 1.0);
    return params;
}

namespace {

void sensor_electronics_span(std::span<float> values, const Camera_params& params,
                             util::Prng& prng)
{
    const auto gain = static_cast<float>(params.gain);
    for (auto& v : values) {
        double level = v;
        if (params.shot_noise_scale > 0.0) {
            level += prng.next_gaussian(0.0,
                                        params.shot_noise_scale * std::sqrt(std::max(level, 0.0)));
        }
        if (params.read_noise_sigma > 0.0) {
            level += prng.next_gaussian(0.0, params.read_noise_sigma);
        }
        level *= gain;
        level = std::clamp(level, 0.0, 255.0);
        if (params.quantize) level = std::nearbyint(level);
        v = static_cast<float>(level);
    }
}

std::uint64_t mix64(std::uint64_t x)
{
    // splitmix64 finalizer: full-avalanche mixing of the seed words.
    x += 0x9e37'79b9'7f4a'7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebULL;
    return x ^ (x >> 31);
}

} // namespace

std::uint64_t row_noise_seed(std::uint64_t seed, std::int64_t capture_index, int row)
{
    return mix64(mix64(seed ^ mix64(static_cast<std::uint64_t>(capture_index)))
                 ^ static_cast<std::uint64_t>(row));
}

void apply_sensor_noise_rows(img::Imagef& integrated, const Camera_params& params,
                             std::int64_t capture_index)
{
    // Skip the whole pass (not just the draws) when the electronics are an
    // identity: gain 1 with no noise or quantization leaves the image
    // untouched either way, and the noiseless configs are the hot ones in
    // the clean-channel tests/benches.
    const bool identity = params.shot_noise_scale <= 0.0 && params.read_noise_sigma <= 0.0
                          && params.gain == 1.0 && !params.quantize;
    if (identity) {
        img::clamp(integrated, 0.0f, 255.0f);
        return;
    }
    util::parallel_for(0, integrated.height(), 8, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
            util::Prng prng(row_noise_seed(params.seed, capture_index, static_cast<int>(r)));
            sensor_electronics_span(integrated.row(static_cast<int>(r)), params, prng);
        }
    });
}

} // namespace inframe::channel
