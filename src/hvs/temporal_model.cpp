#include "hvs/temporal_model.hpp"

#include "dsp/filter.hpp"
#include "util/contract.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace inframe::hvs {

namespace {

double clamped_luminance(double luminance)
{
    // Pixel level 1 is the darkest adaptation state we model; log10 below
    // that is meaningless for an 8-bit display.
    return std::max(luminance, 1.0);
}

int oversample_factor(const Vision_model_params& params, double sample_rate_hz)
{
    const double factor = std::ceil(params.min_internal_rate_hz / sample_rate_hz);
    // Also rejects NaN; the bound keeps the int conversion defined.
    util::expects(factor <= 65536.0, "sample rate too low for the internal filter rate");
    return std::max(1, static_cast<int>(factor));
}

// Sites per pass of Perceptual_filter_bank::step: the block's states
// (cascade_stages + 2 arrays) stay in L1 across the oversampled steps.
constexpr std::size_t bank_block = 128;

// s[i] += alpha[i] * (x[i] - s[i]): one exponential stage of n sites,
// written as dsp::Exponential_cascade::step writes it.
void smooth(double* __restrict state, const double* __restrict input,
            const double* __restrict alpha, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) state[i] += alpha[i] * (input[i] - state[i]);
}

void smooth(double* __restrict state, const double* __restrict input, double alpha,
            std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) state[i] += alpha * (input[i] - state[i]);
}

} // namespace

double cff_hz(const Vision_model_params& params, const Observer& observer, double luminance)
{
    const double l = clamped_luminance(luminance);
    const double cff =
        observer.cff_ref_hz + params.ferry_porter_slope_hz * std::log10(l / params.luminance_ref);
    return std::clamp(cff, 20.0, 70.0);
}

double corner_frequency_hz(const Vision_model_params& params, const Observer& observer,
                           double luminance)
{
    return cff_hz(params, observer, luminance) / params.cff_to_corner;
}

double amplitude_threshold(const Vision_model_params& params, const Observer& observer,
                           double luminance)
{
    const double l = clamped_luminance(luminance);
    const double scale = std::pow(l / params.luminance_ref, params.threshold_luminance_exponent);
    // Cap the low-luminance desensitization: even dark scenes reveal large
    // ripples.
    return observer.amp_threshold * std::clamp(scale, 0.4, 3.0);
}

double perceptual_gain(const Vision_model_params& params, const Observer& observer,
                       double luminance, double frequency_hz, double sample_rate_hz)
{
    util::expects(frequency_hz >= 0.0, "perceptual_gain frequency must be non-negative");
    util::expects(sample_rate_hz > 0.0, "perceptual_gain sample rate must be positive");
    const double internal_rate =
        sample_rate_hz * oversample_factor(params, sample_rate_hz);
    const dsp::Exponential_cascade fast(corner_frequency_hz(params, observer, luminance),
                                        params.cascade_stages, internal_rate);
    const dsp::Exponential_cascade slow(params.adapt_cutoff_hz, 1, internal_rate);
    const auto h_fast = fast.response_at(frequency_hz);
    const auto h_slow = slow.response_at(frequency_hz);
    // Zero-order-hold droop of the display: a sinusoid at f held at the
    // display rate loses sinc(pi f / fs) of its amplitude.
    double zoh = 1.0;
    if (frequency_hz > 0.0) {
        const double x = std::numbers::pi * frequency_hz / sample_rate_hz;
        zoh = std::fabs(std::sin(x) / x);
    }
    return std::abs(h_fast * (1.0 - h_slow)) * zoh;
}

Perceptual_filter_bank::Perceptual_filter_bank(const Vision_model_params& params,
                                               const Observer& observer,
                                               std::span<const double> adapt_luminance,
                                               double sample_rate_hz)
    : stages_(params.cascade_stages), oversample_(oversample_factor(params, sample_rate_hz))
{
    util::expects(stages_ >= 1, "cascade needs at least one stage");
    const double internal_rate = sample_rate_hz * oversample_;
    slow_alpha_ = dsp::exponential_alpha(params.adapt_cutoff_hz, internal_rate);
    fast_alpha_.reserve(adapt_luminance.size());
    for (const double luminance : adapt_luminance) {
        fast_alpha_.push_back(dsp::exponential_alpha(
            corner_frequency_hz(params, observer, luminance), internal_rate));
    }
    fast_.assign(static_cast<std::size_t>(stages_) * size(), 0.0);
    slow_.assign(size(), 0.0);
}

void Perceptual_filter_bank::prime(std::span<const double> luminance)
{
    util::expects(luminance.size() == size(), "Perceptual_filter_bank::prime size mismatch");
    const std::size_t n = size();
    for (int stage = 0; stage < stages_; ++stage) {
        std::copy(luminance.begin(), luminance.end(),
                  fast_.begin() + static_cast<std::ptrdiff_t>(stage * n));
    }
    std::copy(luminance.begin(), luminance.end(), slow_.begin());
}

void Perceptual_filter_bank::step(std::span<const double> samples, std::span<double> out)
{
    util::expects(samples.size() == size() && out.size() == size(),
                  "Perceptual_filter_bank::step size mismatch");
    // The display holds each frame (zero-order hold); the retina filters
    // the held value at the internal rate. Adaptation then subtracts the
    // slow component of the *perceived* signal: gradual luminance drift is
    // tracked and cancelled, fast residuals pass through.
    const std::size_t n = size();
    for (std::size_t begin = 0; begin < n; begin += bank_block) {
        const std::size_t count = std::min(bank_block, n - begin);
        const double* alpha = fast_alpha_.data() + begin;
        double* slow = slow_.data() + begin;
        const double* fast = nullptr;
        for (int k = 0; k < oversample_; ++k) {
            const double* input = samples.data() + begin;
            for (int stage = 0; stage < stages_; ++stage) {
                double* state = fast_.data() + static_cast<std::size_t>(stage) * n + begin;
                smooth(state, input, alpha, count);
                input = state;
            }
            smooth(slow, input, slow_alpha_, count);
            fast = input;
        }
        for (std::size_t i = 0; i < count; ++i) out[begin + i] = fast[i] - slow[i];
    }
}

double perceived_peak_amplitude(const Vision_model_params& params, const Observer& observer,
                                std::span<const double> waveform, double sample_rate_hz,
                                double adapt_luminance, double warmup_seconds)
{
    util::expects(std::isfinite(sample_rate_hz) && sample_rate_hz > 0.0,
                  "sample rate must be positive and finite");
    util::expects(warmup_seconds >= 0.0, "warmup must be non-negative");
    const double warmup_samples = warmup_seconds * sample_rate_hz;
    // Also rejects infinities; the bound keeps the size_t conversion defined.
    util::expects(warmup_samples < 0x1p64, "warmup must be finite");
    Perceptual_filter_bank filter(params, observer, {&adapt_luminance, 1}, sample_rate_hz);
    filter.prime({&adapt_luminance, 1});
    const auto warmup = static_cast<std::size_t>(warmup_samples);
    double peak = 0.0;
    for (std::size_t i = 0; i < waveform.size(); ++i) {
        double y = 0.0;
        filter.step(waveform.subspan(i, 1), {&y, 1});
        if (i >= warmup) peak = std::max(peak, std::fabs(y));
    }
    return peak;
}

double score_from_ratio(double ratio)
{
    if (!(ratio > 0.0)) return 0.0;
    return std::clamp(1.0 + std::log2(ratio), 0.0, 4.0);
}

} // namespace inframe::hvs
