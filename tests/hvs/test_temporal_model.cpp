#include "hvs/temporal_model.hpp"

#include "dsp/envelope.hpp"
#include "dsp/filter.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

namespace {

using namespace inframe::hvs;

std::vector<double> modulated(double mean, double amplitude, double freq_hz, double fps,
                              double seconds)
{
    std::vector<double> s(static_cast<std::size_t>(fps * seconds));
    for (std::size_t i = 0; i < s.size(); ++i) {
        s[i] = mean
               + amplitude
                     * std::sin(2.0 * std::numbers::pi * freq_hz * static_cast<double>(i) / fps);
    }
    return s;
}

TEST(TemporalModel, FerryPorterRaisesCffWithLuminance)
{
    const Vision_model_params params;
    const Observer observer;
    EXPECT_GT(cff_hz(params, observer, 200.0), cff_hz(params, observer, 60.0));
    // One decade of luminance ~ the configured slope.
    EXPECT_NEAR(cff_hz(params, observer, 100.0) - cff_hz(params, observer, 10.0),
                params.ferry_porter_slope_hz, 1e-9);
}

TEST(TemporalModel, CffIsClampedToPhysiologicalRange)
{
    const Vision_model_params params;
    const Observer observer;
    EXPECT_GE(cff_hz(params, observer, 0.0001), 20.0);
    EXPECT_LE(cff_hz(params, observer, 1e9), 70.0);
}

TEST(TemporalModel, ThresholdFallsWithLuminance)
{
    const Vision_model_params params;
    const Observer observer;
    EXPECT_GT(amplitude_threshold(params, observer, 60.0),
              amplitude_threshold(params, observer, 200.0));
}

TEST(TemporalModel, SensitiveObserverHasLowerThreshold)
{
    const Vision_model_params params;
    Observer expert;
    expert.amp_threshold = 0.4;
    const Observer casual;
    EXPECT_LT(amplitude_threshold(params, expert, 100.0),
              amplitude_threshold(params, casual, 100.0));
}

TEST(TemporalModel, PerceptualGainIsBandPass)
{
    const Vision_model_params params;
    const Observer observer;
    const double g_dc = perceptual_gain(params, observer, 100.0, 0.0);
    const double g_mid = perceptual_gain(params, observer, 100.0, 10.0);
    const double g_60 = perceptual_gain(params, observer, 100.0, 60.0);
    EXPECT_NEAR(g_dc, 0.0, 1e-9);
    EXPECT_GT(g_mid, 10.0 * g_60);
    EXPECT_GT(g_mid, 0.2);
}

TEST(TemporalModel, SixtyHzFusesThirtyHzDoesNot)
{
    // The core premise: equal-amplitude modulation at 60 Hz is far less
    // perceptible than at 30 Hz.
    const Vision_model_params params;
    const Observer observer;
    const double g30 = perceptual_gain(params, observer, 127.0, 30.0);
    const double g60 = perceptual_gain(params, observer, 127.0, 60.0);
    EXPECT_GT(g30 / g60, 8.0);
}

TEST(TemporalModel, PerceivedAmplitudeTracksAnalyticGain)
{
    const Vision_model_params params;
    const Observer observer;
    for (const double f : {8.0, 15.0, 30.0}) {
        const auto wave = modulated(127.0, 10.0, f, 120.0, 4.0);
        const double perceived =
            perceived_peak_amplitude(params, observer, wave, 120.0, 127.0, 1.0);
        const double expected = 10.0 * perceptual_gain(params, observer, 127.0, f);
        // Phase interaction between the two paths makes the time-domain
        // peak differ from the magnitude difference; same ballpark only.
        EXPECT_GT(perceived, 0.4 * expected) << "f=" << f;
        EXPECT_LT(perceived, 2.5 * expected + 0.2) << "f=" << f;
    }
}

TEST(TemporalModel, SteadyLuminanceIsInvisible)
{
    const Vision_model_params params;
    const Observer observer;
    const std::vector<double> wave(480, 127.0);
    EXPECT_NEAR(perceived_peak_amplitude(params, observer, wave, 120.0, 127.0), 0.0, 1e-9);
}

TEST(TemporalModel, ComplementaryAlternationIsNearInvisible)
{
    // +-delta alternation at 60 Hz (InFrame steady-state) vs. the same
    // amplitude at 30 Hz (naive design cadence).
    const Vision_model_params params;
    const Observer observer;
    std::vector<double> inframe_wave(480);
    std::vector<double> naive_wave(480);
    for (std::size_t i = 0; i < 480; ++i) {
        inframe_wave[i] = 127.0 + (i % 2 == 0 ? 20.0 : -20.0);
        naive_wave[i] = 127.0 + (i % 4 < 2 ? 20.0 : -20.0);
    }
    const double a_inframe =
        perceived_peak_amplitude(params, observer, inframe_wave, 120.0, 127.0);
    const double a_naive = perceived_peak_amplitude(params, observer, naive_wave, 120.0, 127.0);
    EXPECT_GT(a_naive / a_inframe, 5.0);
    EXPECT_LT(a_inframe, amplitude_threshold(params, observer, 127.0));
}

TEST(TemporalModel, BrighterAdaptationPassesMoreHighFrequency)
{
    // Ferry-Porter consequence that drives Fig. 6 (left): the same 60 Hz
    // ripple is perceived more strongly on a brighter background.
    const Vision_model_params params;
    const Observer observer;
    const auto dim = modulated(60.0, 20.0, 60.0, 120.0, 4.0);
    const auto bright = modulated(200.0, 20.0, 60.0, 120.0, 4.0);
    const double a_dim = perceived_peak_amplitude(params, observer, dim, 120.0, 60.0);
    const double a_bright = perceived_peak_amplitude(params, observer, bright, 120.0, 200.0);
    EXPECT_GT(a_bright, a_dim);
}

TEST(ScoreFromRatio, MapsThePaperScale)
{
    EXPECT_DOUBLE_EQ(score_from_ratio(0.0), 0.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(0.5), 0.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(1.0), 1.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(2.0), 2.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(4.0), 3.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(8.0), 4.0);
    EXPECT_DOUBLE_EQ(score_from_ratio(100.0), 4.0);
}

TEST(ScoreFromRatio, MonotoneInRatio)
{
    double prev = -1.0;
    for (double r = 0.1; r < 20.0; r *= 1.3) {
        const double s = score_from_ratio(r);
        EXPECT_GE(s, prev);
        prev = s;
    }
}

TEST(TemporalModel, SmoothedTransitionLessVisibleThanStair)
{
    // Fig. 5 rationale at the perceptual level.
    const Vision_model_params params;
    const Observer observer;
    const std::uint8_t bits[] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
    for (const int tau : {10, 14}) {
        auto srrc = inframe::dsp::pixel_waveform(bits, tau, inframe::dsp::Transition_shape::srrc);
        auto stair =
            inframe::dsp::pixel_waveform(bits, tau, inframe::dsp::Transition_shape::stair);
        for (auto& v : srrc) v = 127.0 + 20.0 * v;
        for (auto& v : stair) v = 127.0 + 20.0 * v;
        const double a_srrc = perceived_peak_amplitude(params, observer, srrc, 120.0, 127.0);
        const double a_stair = perceived_peak_amplitude(params, observer, stair, 120.0, 127.0);
        EXPECT_LT(a_srrc, a_stair) << "tau=" << tau;
    }
}

TEST(TemporalModel, LongerSmoothingCycleReducesVisibility)
{
    // Fig. 6 (right): larger tau -> smoother transitions -> lower score.
    const Vision_model_params params;
    const Observer observer;
    const std::uint8_t bits[] = {1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0};
    auto perceived_for_tau = [&](int tau) {
        auto wave = inframe::dsp::pixel_waveform(bits, tau);
        for (auto& v : wave) v = 127.0 + 30.0 * v;
        return perceived_peak_amplitude(params, observer, wave, 120.0, 127.0);
    };
    EXPECT_GT(perceived_for_tau(10), perceived_for_tau(14));
    EXPECT_GT(perceived_for_tau(14), perceived_for_tau(20));
}

// --- Perceptual_filter_bank ---------------------------------------------

// One retinal site as two dsp::Exponential_cascade filters, stepped one
// site at a time: the per-site filter the bank replaced, kept here as the
// reference its lanes must match bit for bit.
class Reference_site_filter {
public:
    Reference_site_filter(const Vision_model_params& params, const Observer& observer,
                          double adapt_luminance, double sample_rate_hz)
        : oversample_(std::max(
              1, static_cast<int>(std::ceil(params.min_internal_rate_hz / sample_rate_hz)))),
          fast_(corner_frequency_hz(params, observer, adapt_luminance), params.cascade_stages,
                sample_rate_hz * oversample_),
          slow_(params.adapt_cutoff_hz, 1, sample_rate_hz * oversample_)
    {
    }

    int oversample() const { return oversample_; }

    double step(double luminance_sample)
    {
        double out = 0.0;
        for (int i = 0; i < oversample_; ++i) {
            const double fast = fast_.step(luminance_sample);
            out = fast - slow_.step(fast);
        }
        return out;
    }

    void prime(double luminance)
    {
        fast_.prime(luminance);
        slow_.prime(luminance);
    }

private:
    int oversample_;
    inframe::dsp::Exponential_cascade fast_;
    inframe::dsp::Exponential_cascade slow_;
};

// Adaptation levels spread log-uniformly over [0.5, 255], with the ends
// and the clamped_luminance floor (1.0) and its neighbours included.
std::vector<double> adapt_levels(std::size_t n, std::uint64_t seed)
{
    inframe::util::Prng prng(seed);
    const double fixed[] = {0.5, std::nextafter(1.0, 0.0), 1.0, std::nextafter(1.0, 2.0), 255.0};
    std::vector<double> levels(n);
    for (std::size_t i = 0; i < n; ++i) {
        levels[i] = i < std::size(fixed) ? fixed[i]
                                         : std::exp(prng.next_double(std::log(0.5),
                                                                     std::log(255.0)));
    }
    return levels;
}

TEST(PerceptualFilterBank, LanesMatchPerSiteCascadesBitForBit)
{
    const Vision_model_params params;
    const auto panel = make_observer_panel(3, 7);
    constexpr int steps = 48;
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{1024},
                                std::size_t{1025}}) {
        for (const double rate : {120.0, 60.0, 29.97}) {
            for (const bool primed : {true, false}) {
                const Observer& observer = panel[n % panel.size()];
                const std::string label = "n=" + std::to_string(n) + " rate="
                                          + std::to_string(rate)
                                          + (primed ? " primed" : " unprimed");
                const auto levels = adapt_levels(n, 11 + n);
                Perceptual_filter_bank bank(params, observer, levels, rate);
                ASSERT_EQ(bank.size(), n) << label;
                std::vector<Reference_site_filter> reference;
                for (const double level : levels) {
                    reference.emplace_back(params, observer, level, rate);
                }
                const int expected_oversample = rate == 120.0 ? 8 : rate == 60.0 ? 16 : 33;
                ASSERT_EQ(reference[0].oversample(), expected_oversample) << label;
                if (primed) {
                    bank.prime(levels);
                    for (std::size_t i = 0; i < n; ++i) reference[i].prime(levels[i]);
                }

                // Steps, ramps and noise around each site's level, with an
                // occasional jump to 0 or 255.
                inframe::util::Prng prng(3 * n + static_cast<std::uint64_t>(rate));
                std::vector<double> samples(n);
                std::vector<double> out(n);
                std::size_t mismatches = 0;
                for (int t = 0; t < steps; ++t) {
                    for (std::size_t i = 0; i < n; ++i) {
                        const double u = prng.next_double();
                        samples[i] = u < 0.05   ? 0.0
                                     : u > 0.95 ? 255.0
                                                : levels[i] + prng.next_double(-30.0, 30.0);
                    }
                    bank.step(samples, out);
                    for (std::size_t i = 0; i < n; ++i) {
                        const double expected = reference[i].step(samples[i]);
                        if (std::bit_cast<std::uint64_t>(out[i])
                            != std::bit_cast<std::uint64_t>(expected)) {
                            if (mismatches++ == 0) {
                                ADD_FAILURE() << label << ": site " << i << " step " << t
                                              << " bank " << out[i] << " reference "
                                              << expected;
                            }
                        }
                    }
                }
                EXPECT_EQ(mismatches, 0u) << label;
            }
        }
    }
}

TEST(PerceptualFilterBank, SizeMismatchThrows)
{
    const std::vector<double> levels = {50.0, 100.0};
    Perceptual_filter_bank bank(Vision_model_params{}, Observer{}, levels, 120.0);
    std::vector<double> three(3);
    std::vector<double> two(2);
    EXPECT_THROW(bank.prime(three), inframe::util::Contract_violation);
    EXPECT_THROW(bank.step(three, two), inframe::util::Contract_violation);
    EXPECT_THROW(bank.step(two, three), inframe::util::Contract_violation);
}

TEST(PerceptualFilterBank, RejectsRatesTooLowForTheInternalRate)
{
    const std::vector<double> levels = {100.0};
    EXPECT_THROW(Perceptual_filter_bank(Vision_model_params{}, Observer{}, levels, 1e-9),
                 inframe::util::Contract_violation);
    EXPECT_THROW(Perceptual_filter_bank(Vision_model_params{}, Observer{}, levels,
                                        std::numeric_limits<double>::quiet_NaN()),
                 inframe::util::Contract_violation);
}

TEST(TemporalModel, PerceivedPeakAmplitudeRejectsNonFiniteArguments)
{
    const std::vector<double> wave(16, 127.0);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(perceived_peak_amplitude({}, {}, wave, inf, 127.0),
                 inframe::util::Contract_violation);
    EXPECT_THROW(perceived_peak_amplitude({}, {}, wave, 120.0, 127.0, inf),
                 inframe::util::Contract_violation);
}

} // namespace
