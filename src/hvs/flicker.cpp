#include "hvs/flicker.hpp"

#include "imgproc/image_ops.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace inframe::hvs {

namespace {

struct Pooling_kernel {
    int radius = 0;
    std::vector<float> weights; // (2r+1)^2, normalized

    static Pooling_kernel make(double sigma)
    {
        Pooling_kernel kernel;
        kernel.radius = std::max(1, static_cast<int>(std::ceil(2.0 * sigma)));
        const int size = 2 * kernel.radius + 1;
        kernel.weights.resize(static_cast<std::size_t>(size) * static_cast<std::size_t>(size));
        double sum = 0.0;
        for (int dy = -kernel.radius; dy <= kernel.radius; ++dy) {
            for (int dx = -kernel.radius; dx <= kernel.radius; ++dx) {
                const double w =
                    std::exp(-(static_cast<double>(dx) * dx + static_cast<double>(dy) * dy)
                             / (2.0 * sigma * sigma));
                kernel.weights[static_cast<std::size_t>((dy + kernel.radius) * size
                                                        + (dx + kernel.radius))] =
                    static_cast<float>(w);
                sum += w;
            }
        }
        for (auto& w : kernel.weights) w = static_cast<float>(w / sum);
        return kernel;
    }

    double sample(const img::Imagef& frame, int ix, int iy) const
    {
        const int size = 2 * radius + 1;
        double acc = 0.0;
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                acc += weights[static_cast<std::size_t>((dy + radius) * size + (dx + radius))]
                       * frame.at_clamped(ix + dx, iy + dy);
            }
        }
        return acc;
    }
};

struct Site {
    double x = 0.0;
    double y = 0.0;
};

// Integer centre of a site's pooling aperture.
struct Tap {
    int x = 0;
    int y = 0;
};

// The luminance plane the assessor pools: a 1-channel frame as it is (no
// copy), a 3-channel frame converted into `storage`.
const img::Imagef& luminance_plane(const img::Imagef& frame, img::Imagef& storage)
{
    if (frame.channels() == 1) return frame;
    storage = img::to_gray(frame);
    return storage;
}

// Validated before the members that use the options are built.
Flicker_options checked_options(int width, int height, double fps, const Flicker_options& opts)
{
    util::expects(width > 0 && height > 0, "Flicker_assessor frame size must be positive");
    util::expects(std::isfinite(fps) && fps > 0.0,
                  "Flicker_assessor fps must be positive and finite");
    util::expects(opts.max_sites >= 1, "Flicker_assessor needs at least one site");
    util::expects(opts.warmup_seconds >= 0.0, "warmup must be non-negative");
    // Also rejects infinities; the bound keeps the size_t conversion defined.
    util::expects(opts.warmup_seconds * fps < 0x1p64, "warmup must be finite");
    // The bound keeps the aperture radius (2 sigma_px) within twice the
    // frame height, and its int conversion defined.
    util::expects(std::isfinite(opts.pooling_sigma_540) && opts.pooling_sigma_540 <= 540.0,
                  "pooling sigma must be finite and at most the frame height");
    util::expects(std::isfinite(opts.gaze_velocity_x) && std::isfinite(opts.gaze_velocity_y),
                  "gaze velocity must be finite");
    return opts;
}

} // namespace

struct Flicker_assessor::Impl {
    int width;
    int height;
    double fps;
    Vision_model_params params;
    Observer observer;
    Flicker_options options;
    Pooling_kernel kernel;
    std::size_t frames_seen = 0;
    std::size_t warmup_frames = 0;

    // Per site, in placement order.
    std::vector<Site> sites;
    std::vector<Tap> taps; // fixed under steady gaze, else moved every frame
    std::vector<double> adapt_luminance;
    std::vector<double> peak_amplitude;
    std::optional<Perceptual_filter_bank> filters; // built on the first frame

    // Per-frame scratch.
    std::vector<double> samples;
    std::vector<double> reference_samples;
    std::vector<double> perceived;

    Impl(int w, int h, double f, Vision_model_params p, Observer o, Flicker_options opts)
        : width(w), height(h), fps(f), params(p), observer(std::move(o)),
          options(checked_options(w, h, f, opts)),
          kernel(Pooling_kernel::make(std::max(0.3, opts.pooling_sigma_540 * h / 540.0))),
          warmup_frames(static_cast<std::size_t>(opts.warmup_seconds * f))
    {
        place_sites();
        const std::size_t n = sites.size();
        taps.resize(n);
        adapt_luminance.assign(n, 0.0);
        peak_amplitude.assign(n, 0.0);
        samples.resize(n);
        reference_samples.resize(n);
        perceived.resize(n);
    }

    bool drifting() const
    {
        return options.gaze_velocity_x != 0.0 || options.gaze_velocity_y != 0.0;
    }

    void place_sites()
    {
        // Near-square jittered grid covering the frame.
        const double aspect = static_cast<double>(width) / height;
        int ny = std::max(1, static_cast<int>(std::floor(std::sqrt(options.max_sites / aspect))));
        int nx = std::max(1, options.max_sites / ny);
        util::Prng prng(options.seed);
        sites.reserve(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny));
        for (int gy = 0; gy < ny; ++gy) {
            for (int gx = 0; gx < nx; ++gx) {
                Site site;
                const double cell_w = static_cast<double>(width) / nx;
                const double cell_h = static_cast<double>(height) / ny;
                site.x = (gx + 0.5) * cell_w + prng.next_double(-0.25, 0.25) * cell_w;
                site.y = (gy + 0.5) * cell_h + prng.next_double(-0.25, 0.25) * cell_h;
                site.x = std::clamp(site.x, 0.0, static_cast<double>(width - 1));
                site.y = std::clamp(site.y, 0.0, static_cast<double>(height - 1));
                sites.push_back(site);
            }
        }
    }

    // Aperture centres at frame time t. Under steady gaze the drift terms
    // are zero for every t, so the taps of the first frame hold for all.
    void place_taps(double t)
    {
        for (std::size_t i = 0; i < sites.size(); ++i) {
            // Gaze drift (phantom-array condition): the retinal site slides
            // across the screen; wrap keeps it on-frame for long runs.
            double sx = sites[i].x + options.gaze_velocity_x * t;
            double sy = sites[i].y + options.gaze_velocity_y * t;
            if (width > 1) sx = std::fmod(std::fmod(sx, width - 1) + (width - 1), width - 1);
            if (height > 1) sy = std::fmod(std::fmod(sy, height - 1) + (height - 1), height - 1);
            taps[i] = {static_cast<int>(std::lround(sx)), static_cast<int>(std::lround(sy))};
        }
    }

    void pool(const img::Imagef& frame, std::vector<double>& out) const
    {
        for (std::size_t i = 0; i < taps.size(); ++i) {
            out[i] = kernel.sample(frame, taps[i].x, taps[i].y);
        }
    }

    void push_frame(const img::Imagef& frame_in, const img::Imagef* reference_in = nullptr)
    {
        const telemetry::Scoped_span span("hvs.assess");
        img::Imagef frame_storage;
        const img::Imagef& frame = luminance_plane(frame_in, frame_storage);
        util::expects(frame.width() == width && frame.height() == height,
                      "Flicker_assessor frame size mismatch");
        img::Imagef reference_storage;
        const img::Imagef* reference = nullptr;
        if (reference_in != nullptr) {
            reference = &luminance_plane(*reference_in, reference_storage);
            util::expects(reference->width() == width && reference->height() == height,
                          "Flicker_assessor reference size mismatch");
        }
        if (frames_seen == 0 || drifting()) place_taps(static_cast<double>(frames_seen));

        if (!filters) {
            // Adaptation state comes from the first (reference) frame.
            pool(reference != nullptr ? *reference : frame, adapt_luminance);
            filters.emplace(params, observer, adapt_luminance, fps);
            filters->prime(adapt_luminance);
        }
        pool(frame, samples);
        if (reference != nullptr) {
            // Side-by-side mode: cancel the content, keep the artifact
            // riding at the site's adaptation level.
            pool(*reference, reference_samples);
            for (std::size_t i = 0; i < samples.size(); ++i) {
                samples[i] = adapt_luminance[i] + (samples[i] - reference_samples[i]);
            }
        }
        filters->step(samples, perceived);
        if (frames_seen >= warmup_frames) {
            for (std::size_t i = 0; i < perceived.size(); ++i) {
                peak_amplitude[i] = std::max(peak_amplitude[i], std::fabs(perceived[i]));
            }
        }
        ++frames_seen;
    }

    Flicker_result result() const
    {
        Flicker_result r;
        r.frames_assessed = frames_seen;
        if (sites.empty() || frames_seen == 0) return r;

        // Rank sites by visibility ratio; judge by the worst 1% (at least
        // 4 sites) so a single noisy site cannot dominate but localized
        // artifacts still count.
        std::vector<double> ratios;
        ratios.reserve(sites.size());
        double mean_luminance = 0.0;
        for (std::size_t i = 0; i < sites.size(); ++i) {
            const double threshold = amplitude_threshold(params, observer, adapt_luminance[i]);
            ratios.push_back(peak_amplitude[i] / threshold);
            mean_luminance += adapt_luminance[i];
            r.peak_perceived_amplitude = std::max(r.peak_perceived_amplitude, peak_amplitude[i]);
        }
        mean_luminance /= static_cast<double>(sites.size());
        std::sort(ratios.begin(), ratios.end(), std::greater<>());
        const std::size_t top = std::max<std::size_t>(4, ratios.size() / 100);
        double acc = 0.0;
        const std::size_t n = std::min(top, ratios.size());
        for (std::size_t i = 0; i < n; ++i) acc += ratios[i];
        r.visibility_ratio = acc / static_cast<double>(n);
        r.adapt_luminance = mean_luminance;
        r.score = score_from_ratio(r.visibility_ratio);
        return r;
    }
};

Flicker_assessor::Flicker_assessor(int width, int height, double fps, Vision_model_params params,
                                   Observer observer, Flicker_options options)
    : impl_(std::make_unique<Impl>(width, height, fps, params, std::move(observer), options))
{
}

Flicker_assessor::~Flicker_assessor() = default;
Flicker_assessor::Flicker_assessor(Flicker_assessor&&) noexcept = default;
Flicker_assessor& Flicker_assessor::operator=(Flicker_assessor&&) noexcept = default;

void Flicker_assessor::push_frame(const img::Imagef& frame)
{
    impl_->push_frame(frame);
}

void Flicker_assessor::push_frame_pair(const img::Imagef& shown, const img::Imagef& reference)
{
    impl_->push_frame(shown, &reference);
}

Flicker_result Flicker_assessor::result() const
{
    return impl_->result();
}

int Flicker_assessor::width() const
{
    return impl_->width;
}

int Flicker_assessor::height() const
{
    return impl_->height;
}

Flicker_result assess_flicker(std::span<const img::Imagef> frames, double fps,
                              const Vision_model_params& params, const Observer& observer,
                              const Flicker_options& options)
{
    util::expects(!frames.empty(), "assess_flicker needs at least one frame");
    Flicker_assessor assessor(frames[0].width(), frames[0].height(), fps, params, observer,
                              options);
    for (const auto& frame : frames) assessor.push_frame(frame);
    return assessor.result();
}

Panel_result assess_flicker_panel(std::span<const img::Imagef> frames, double fps,
                                  const Vision_model_params& params,
                                  std::span<const Observer> panel,
                                  const Flicker_options& options)
{
    util::expects(!panel.empty(), "assess_flicker_panel needs observers");
    Panel_result result;
    util::Running_stats stats;
    for (const auto& observer : panel) {
        const auto r = assess_flicker(frames, fps, params, observer, options);
        result.scores.push_back(r.score);
        stats.add(r.score);
    }
    result.mean_score = stats.mean();
    result.stddev_score = stats.stddev();
    return result;
}

} // namespace inframe::hvs
