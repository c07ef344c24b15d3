#include "imgproc/filter.hpp"

#include "imgproc/draw.hpp"
#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace {

using namespace inframe::img;
using inframe::util::Contract_violation;
using inframe::util::Prng;

TEST(BoxBlur, RadiusZeroIsIdentity)
{
    Imagef a(4, 4);
    Prng prng(1);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const Imagef out = box_blur(a, 0);
    for (std::size_t i = 0; i < a.values().size(); ++i) {
        EXPECT_FLOAT_EQ(out.values()[i], a.values()[i]);
    }
}

TEST(BoxBlur, ConstantImageIsInvariant)
{
    const Imagef a(16, 12, 1, 42.0f);
    const Imagef out = box_blur(a, 3);
    for (const float v : out.values()) EXPECT_NEAR(v, 42.0f, 1e-4f);
}

TEST(BoxBlur, PreservesMeanApproximately)
{
    Prng prng(2);
    Imagef a(32, 32);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const Imagef out = box_blur(a, 2);
    EXPECT_NEAR(mean(out), mean(a), 2.0);
}

TEST(BoxBlur, FlattensCheckerboardCompletely)
{
    // A 1-pixel checkerboard averaged over any odd window with equal counts
    // of both phases lands on the midpoint. Radius 1 (3x3 window) leaves a
    // small bias, but the interior is near the mean.
    const Imagef board = checkerboard(32, 32, 1, 0.0f, 100.0f);
    const Imagef out = box_blur(board, 2); // 5x5 window: 13 vs 12 cells
    const double interior = mean_region(out, 8, 8, 16, 16);
    EXPECT_NEAR(interior, 50.0, 3.0);
}

TEST(BoxBlur, MatchesBruteForceInsideImage)
{
    Prng prng(3);
    Imagef a(9, 7);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const int radius = 1;
    const Imagef fast = box_blur(a, radius);
    for (int y = radius; y < a.height() - radius; ++y) {
        for (int x = radius; x < a.width() - radius; ++x) {
            double sum = 0.0;
            for (int dy = -radius; dy <= radius; ++dy) {
                for (int dx = -radius; dx <= radius; ++dx) sum += a(x + dx, y + dy);
            }
            EXPECT_NEAR(fast(x, y), sum / 9.0, 1e-3);
        }
    }
}

TEST(BoxBlur, AnisotropicRadii)
{
    // Horizontal-only blur must not mix rows.
    Imagef a(8, 2, 1, 0.0f);
    for (int x = 0; x < 8; ++x) a(x, 1) = 80.0f;
    const Imagef out = box_blur(a, 2, 0);
    for (int x = 0; x < 8; ++x) {
        EXPECT_NEAR(out(x, 0), 0.0f, 1e-4f);
        EXPECT_NEAR(out(x, 1), 80.0f, 1e-4f);
    }
}

TEST(BoxBlur, NegativeRadiusThrows)
{
    const Imagef a(4, 4);
    EXPECT_THROW(box_blur(a, -1), Contract_violation);
}

TEST(GaussianKernel, NormalizedAndSymmetric)
{
    const auto kernel = gaussian_kernel(1.5);
    EXPECT_EQ(kernel.size() % 2, 1u);
    const double sum = std::accumulate(kernel.begin(), kernel.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
    for (std::size_t i = 0; i < kernel.size() / 2; ++i) {
        EXPECT_FLOAT_EQ(kernel[i], kernel[kernel.size() - 1 - i]);
    }
    EXPECT_THROW(gaussian_kernel(0.0), Contract_violation);
}

TEST(GaussianBlur, SigmaZeroIsIdentity)
{
    Imagef a(4, 4, 1, 5.0f);
    a(1, 1) = 50.0f;
    const Imagef out = gaussian_blur(a, 0.0);
    EXPECT_FLOAT_EQ(out(1, 1), 50.0f);
}

TEST(GaussianBlur, SpreadsAnImpulse)
{
    Imagef a(11, 11, 1, 0.0f);
    a(5, 5) = 100.0f;
    const Imagef out = gaussian_blur(a, 1.0);
    EXPECT_LT(out(5, 5), 100.0f);
    EXPECT_GT(out(5, 5), out(4, 5) - 1e-3f);
    EXPECT_GT(out(4, 5), 0.0f);
    // Energy conservation (clamp border far away from impulse).
    EXPECT_NEAR(mean(out) * 121.0, 100.0, 0.5);
}

TEST(GaussianBlur, ReducesCheckerboardContrastMoreThanGradient)
{
    const Imagef board = checkerboard(32, 32, 1, 0.0f, 100.0f);
    const Imagef ramp = horizontal_gradient(32, 32, 0.0f, 100.0f);
    const Imagef board_blur = gaussian_blur(board, 1.2);
    const Imagef ramp_blur = gaussian_blur(ramp, 1.2);
    const double board_residual = mean(abs_diff(board, board_blur));
    const double ramp_residual = mean(abs_diff(ramp, ramp_blur));
    // This asymmetry is exactly what the InFrame decoder relies on.
    EXPECT_GT(board_residual, 10.0 * ramp_residual);
}

TEST(SeparableConvolve, EvenKernelRejected)
{
    const Imagef a(4, 4);
    const std::vector<float> kernel = {0.5f, 0.5f};
    EXPECT_THROW(separable_convolve(a, kernel), Contract_violation);
}

TEST(SeparableConvolve, IdentityKernel)
{
    Prng prng(4);
    Imagef a(6, 5);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const std::vector<float> kernel = {0.0f, 1.0f, 0.0f};
    const Imagef out = separable_convolve(a, kernel);
    for (std::size_t i = 0; i < a.values().size(); ++i) {
        EXPECT_NEAR(out.values()[i], a.values()[i], 1e-4f);
    }
}

} // namespace
