// Parity pins for the row-kernel fast paths of the camera optics chain
// (resize_area tiles, the bilinear plan behind translate,
// clamp-free separable_convolve). Each is compared bit for bit against the
// generic per-pixel formulation written out here, at every SIMD level the
// host supports and at 1 and 4 kernel threads.
#include "imgproc/filter.hpp"
#include "imgproc/resize.hpp"
#include "simd/simd.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

namespace {

using namespace inframe::img;
using inframe::simd::Level;

// Values in the 8-bit domain plus the awkward ones: signed zeros (a copy
// and `0.0 + v` disagree on -0), exact halves and tiny magnitudes.
Imagef random_image(int width, int height, int channels, std::uint64_t seed)
{
    inframe::util::Prng prng(seed);
    Imagef image(width, height, channels);
    const float specials[] = {-0.0f, 0.0f, 0.5f, 127.5f, 255.0f, 1e-30f};
    for (auto& v : image.values()) {
        v = prng.next_below(8) == 0 ? specials[prng.next_below(6)]
                                    : static_cast<float>(prng.next_double(0.0, 255.0));
    }
    return image;
}

void expect_bits_equal(const Imagef& actual, const Imagef& expected, const std::string& label)
{
    ASSERT_TRUE(actual.same_shape(expected)) << label;
    const auto a = actual.values();
    const auto b = expected.values();
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint32_t ua = 0;
        std::uint32_t ub = 0;
        std::memcpy(&ua, &a[i], sizeof ua);
        std::memcpy(&ub, &b[i], sizeof ub);
        ASSERT_EQ(ua, ub) << label << " at value " << i << ": " << a[i] << " vs " << b[i];
    }
}

// --- generic references ------------------------------------------------------

Imagef reference_resize_area(const Imagef& src, int out_w, int out_h)
{
    Imagef out(out_w, out_h, src.channels());
    const double sx = static_cast<double>(src.width()) / out_w;
    const double sy = static_cast<double>(src.height()) / out_h;
    for (int y = 0; y < out_h; ++y) {
        const double y_lo = y * sy;
        const double y_hi = (y + 1) * sy;
        const int iy_lo = static_cast<int>(std::floor(y_lo));
        const int iy_hi = std::min(static_cast<int>(std::ceil(y_hi)), src.height());
        for (int x = 0; x < out_w; ++x) {
            const double x_lo = x * sx;
            const double x_hi = (x + 1) * sx;
            const int ix_lo = static_cast<int>(std::floor(x_lo));
            const int ix_hi = std::min(static_cast<int>(std::ceil(x_hi)), src.width());
            for (int c = 0; c < src.channels(); ++c) {
                double acc = 0.0;
                double area = 0.0;
                for (int sy_i = iy_lo; sy_i < iy_hi; ++sy_i) {
                    const double hy =
                        std::min<double>(y_hi, sy_i + 1) - std::max<double>(y_lo, sy_i);
                    for (int sx_i = ix_lo; sx_i < ix_hi; ++sx_i) {
                        const double wx =
                            std::min<double>(x_hi, sx_i + 1) - std::max<double>(x_lo, sx_i);
                        const double w = wx * hy;
                        acc += w * src(sx_i, sy_i, c);
                        area += w;
                    }
                }
                out(x, y, c) = static_cast<float>(area > 0.0 ? acc / area : 0.0);
            }
        }
    }
    return out;
}

Imagef reference_translate(const Imagef& src, float dx, float dy)
{
    Imagef out(src.width(), src.height(), src.channels());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            for (int c = 0; c < src.channels(); ++c) {
                out(x, y, c) = sample_bilinear(src, static_cast<float>(x) - dx,
                                               static_cast<float>(y) - dy, c);
            }
        }
    }
    return out;
}

Imagef reference_separable_convolve(const Imagef& src, const std::vector<float>& kernel)
{
    const int radius = static_cast<int>(kernel.size() / 2);
    Imagef horizontal(src.width(), src.height(), src.channels());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            for (int c = 0; c < src.channels(); ++c) {
                double acc = 0.0;
                for (int k = -radius; k <= radius; ++k) {
                    acc += kernel[static_cast<std::size_t>(k + radius)]
                           * src.at_clamped(x + k, y, c);
                }
                horizontal(x, y, c) = static_cast<float>(acc);
            }
        }
    }
    Imagef out(src.width(), src.height(), src.channels());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            for (int c = 0; c < src.channels(); ++c) {
                double acc = 0.0;
                for (int k = -radius; k <= radius; ++k) {
                    acc += kernel[static_cast<std::size_t>(k + radius)]
                           * horizontal.at_clamped(x, y + k, c);
                }
                out(x, y, c) = static_cast<float>(acc);
            }
        }
    }
    return out;
}

// --- fixture: one instance per SIMD level --------------------------------------

class OpticsFastPath : public ::testing::TestWithParam<Level> {
protected:
    void SetUp() override { previous_ = inframe::simd::set_active_level(GetParam()); }
    void TearDown() override { inframe::simd::set_active_level(previous_); }

    template <typename Fn>
    void at_thread_counts(Fn&& fn)
    {
        for (const int threads : {1, 4}) {
            const inframe::util::Parallel_scope scope(threads);
            fn("threads " + std::to_string(threads));
        }
    }

private:
    Level previous_ = Level::scalar;
};

TEST_P(OpticsFastPath, ResizeAreaMatchesGeneric)
{
    struct Shape {
        int src_w, src_h, out_w, out_h;
    };
    const Shape shapes[] = {
        {37, 23, 37, 23},  // 1:1 copy
        {74, 46, 37, 23},  // 2:1
        {33, 27, 11, 9},   // 3:1
        {48, 18, 12, 9},   // 4:1 by 2:1
        {1, 1, 1, 1},      // single pixel
        {50, 30, 37, 23},  // non-integer
        {60, 36, 40, 24},  // 1.5:1 (the 1080p -> 720p ratio)
        {10, 6, 23, 13},   // upscale
    };
    at_thread_counts([&](const std::string& threads) {
        for (const int channels : {1, 3}) {
            for (const auto& s : shapes) {
                const Imagef src = random_image(s.src_w, s.src_h, channels, 11);
                const std::string label = threads + ", " + std::to_string(s.src_w) + "x"
                                          + std::to_string(s.src_h) + " -> "
                                          + std::to_string(s.out_w) + "x"
                                          + std::to_string(s.out_h) + ", channels "
                                          + std::to_string(channels);
                expect_bits_equal(resize_area(src, s.out_w, s.out_h),
                                  reference_resize_area(src, s.out_w, s.out_h), label);
            }
        }
    });
}

TEST_P(OpticsFastPath, TranslateMatchesSampleBilinear)
{
    const float shifts[][2] = {{0.0f, 0.0f},   {0.3f, 0.2f},  {-0.3f, -0.7f},
                               {1.6f, 2.25f},  {-3.5f, 0.4f}, {40.0f, -40.0f}};
    const int sizes[][2] = {{37, 23}, {1, 5}, {6, 1}, {2, 2}};
    at_thread_counts([&](const std::string& threads) {
        for (const int channels : {1, 3}) {
            for (const auto& size : sizes) {
                const Imagef src = random_image(size[0], size[1], channels, 12);
                for (const auto& shift : shifts) {
                    const std::string label =
                        threads + ", " + std::to_string(size[0]) + "x" + std::to_string(size[1])
                        + ", channels " + std::to_string(channels) + ", shift "
                        + std::to_string(shift[0]) + "," + std::to_string(shift[1]);
                    expect_bits_equal(translate(src, shift[0], shift[1]),
                                      reference_translate(src, shift[0], shift[1]), label);
                }
            }
        }
    });
}

TEST_P(OpticsFastPath, SeparableConvolveMatchesClampedGeneric)
{
    // Radius 2 (the camera's sigma 0.5 blur), 3 and 0; image sides at and
    // below 2*radius leave no interior column or row at all.
    const std::vector<std::vector<float>> kernels = {
        gaussian_kernel(0.5), gaussian_kernel(1.0), {1.0f}, {0.25f, -0.5f, 1.25f}};
    const int sizes[][2] = {{37, 23}, {1, 1}, {4, 4}, {5, 3}, {3, 9}, {6, 2}, {7, 7}};
    at_thread_counts([&](const std::string& threads) {
        for (const int channels : {1, 3}) {
            for (const auto& size : sizes) {
                const Imagef src = random_image(size[0], size[1], channels, 14);
                for (const auto& kernel : kernels) {
                    const std::string label =
                        threads + ", " + std::to_string(size[0]) + "x" + std::to_string(size[1])
                        + ", channels " + std::to_string(channels) + ", taps "
                        + std::to_string(kernel.size());
                    expect_bits_equal(separable_convolve(src, kernel),
                                      reference_separable_convolve(src, kernel), label);
                }
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(AllLevels, OpticsFastPath,
                         ::testing::ValuesIn(inframe::simd::available_levels().begin(),
                                             inframe::simd::available_levels().end()),
                         [](const ::testing::TestParamInfo<Level>& info) {
                             return std::string(inframe::simd::to_string(info.param));
                         });

} // namespace
