// Temporal model of human flicker perception.
//
// The paper's design rests on approximating the human vision system "as a
// linear low-pass filter at a high frequency exceeding the CFF" (2). This
// module implements that approximation concretely:
//
//  - the front end is a cascade of first-order low-pass stages whose corner
//    frequency tracks luminance via the Ferry-Porter law (CFF rises with
//    log luminance — this is why the paper observes stronger flicker on
//    brighter videos, Fig. 6 left);
//  - a slow adaptation path is subtracted, making the overall response
//    band-pass: gradual luminance drift (ordinary video content) is not
//    flicker, fast residuals are;
//  - visibility is judged on perceived *amplitude* against a
//    luminance-dependent threshold (high-frequency flicker detection is
//    amplitude-linear rather than Weber-contrast driven, per Kelly 1972).
#pragma once

#include "hvs/observer.hpp"

#include <span>
#include <vector>

namespace inframe::hvs {

struct Vision_model_params {
    // Reference luminance (pixel value) at which Observer parameters hold.
    double luminance_ref = 100.0;

    // Ferry-Porter slope: CFF gain in Hz per decade of luminance.
    double ferry_porter_slope_hz = 12.0;

    // Stages in the low-pass cascade. Ten stages with the corner right at
    // CFF give the de Lange-curve shape: nearly flat below ~20 Hz, a cliff
    // between 30 and 60 Hz (gain ratio ~25x), which is the separation the
    // complementary-frame design exploits.
    int cascade_stages = 10;

    // Relation between CFF and the per-stage corner frequency. Calibrated
    // (with amp_threshold) against two anchors: +-20 around level 127 at
    // 30 Hz is strong flicker (visibility ratio ~5-6), and full-contrast
    // 60 Hz sits at threshold (large bright 60 Hz fields are borderline,
    // as CRT experience showed).
    double cff_to_corner = 1.0;

    // Internal filter rate (Hz): display output is zero-order-held and the
    // retina integrates continuously, so the cascade runs at >= this rate
    // with the frame value held between display samples.
    double min_internal_rate_hz = 960.0;

    // Corner of the slow adaptation path that is subtracted (Hz).
    double adapt_cutoff_hz = 2.0;

    // Exponent of the amplitude threshold vs. luminance: negative means
    // brighter scenes reveal smaller ripples.
    double threshold_luminance_exponent = -0.25;
};

// Luminance-adapted CFF for an observer (Ferry-Porter law).
double cff_hz(const Vision_model_params& params, const Observer& observer, double luminance);

// Per-stage corner frequency of the cascade for the adapted CFF.
double corner_frequency_hz(const Vision_model_params& params, const Observer& observer,
                           double luminance);

// Amplitude visibility threshold (pixel-value units) at the luminance.
double amplitude_threshold(const Vision_model_params& params, const Observer& observer,
                           double luminance);

// Steady-state gain of the perceptual band-pass at a frequency. The
// response is H_fast(f) * (1 - H_adapt(f)): the front-end low-pass cascade
// followed by subtractive adaptation of its own slow component. Computed
// from the exact discrete-time responses at the given sample rate.
double perceptual_gain(const Vision_model_params& params, const Observer& observer,
                       double luminance, double frequency_hz,
                       double sample_rate_hz = 120.0);

// Streaming band-pass for a bank of retinal sites: feed every site one
// display-rate luminance sample per step, read back the perceived
// deviations. Sites differ only in the luminance they adapted to, which
// sets the corner of their fast cascade.
//
// The bank is structure-of-arrays (stage-major fast states, slow states,
// per-site alphas) and steps all sites through the oversampled cascade in
// loops over sites. Each site keeps the operation order of a pair of
// dsp::Exponential_cascade filters, so its output bits do not depend on
// the bank it sits in (DESIGN.md §4h).
class Perceptual_filter_bank {
public:
    Perceptual_filter_bank(const Vision_model_params& params, const Observer& observer,
                           std::span<const double> adapt_luminance, double sample_rate_hz);

    std::size_t size() const { return fast_alpha_.size(); }

    // Settles both paths of site i at luminance[i] (no start-up transient).
    void prime(std::span<const double> luminance);

    // Feeds samples[i] to site i and writes its perceived deviation (fast
    // path minus adaptation path) to out[i].
    void step(std::span<const double> samples, std::span<double> out);

private:
    int stages_ = 0;
    int oversample_ = 0;
    double slow_alpha_ = 0.0;
    std::vector<double> fast_alpha_; // per site
    std::vector<double> fast_;       // stage-major: fast_[stage * size() + site]
    std::vector<double> slow_;       // per site
};

// Offline helper: perceived peak deviation of a waveform after warmup.
// Useful for waveform-level analysis (Fig. 5 style) and unit tests.
double perceived_peak_amplitude(const Vision_model_params& params, const Observer& observer,
                                std::span<const double> waveform, double sample_rate_hz,
                                double adapt_luminance, double warmup_seconds = 0.5);

// Maps a visibility ratio (perceived amplitude / threshold) to the paper's
// 0-4 subjective scale: r <= 0.5 -> 0 ("no difference"), r == 1 -> 1
// ("almost unnoticeable"), doubling r adds one level, capped at 4.
double score_from_ratio(double ratio);

} // namespace inframe::hvs
