#include "imgproc/resize.hpp"

#include "imgproc/image_ops.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

namespace {

using namespace inframe::img;
using inframe::util::Prng;

TEST(ResizeArea, DownscalePreservesMean)
{
    Prng prng(6);
    Imagef a(64, 48);
    for (auto& v : a.values()) v = static_cast<float>(prng.next_double(0, 255));
    const Imagef out = resize_area(a, 21, 17);
    EXPECT_NEAR(mean(out), mean(a), 1.0);
}

TEST(ResizeArea, ExactFactorAveragesBlocks)
{
    Imagef a(4, 2);
    a(0, 0) = 0.0f;
    a(1, 0) = 100.0f;
    a(2, 0) = 40.0f;
    a(3, 0) = 60.0f;
    a(0, 1) = 100.0f;
    a(1, 1) = 0.0f;
    a(2, 1) = 60.0f;
    a(3, 1) = 40.0f;
    const Imagef out = resize_area(a, 2, 1);
    EXPECT_NEAR(out(0, 0), 50.0f, 1e-3f);
    EXPECT_NEAR(out(1, 0), 50.0f, 1e-3f);
}

TEST(ResizeArea, NonIntegerFactorWeightsOverlap)
{
    // 3 -> 2: each output pixel covers 1.5 input pixels.
    Imagef a(3, 1);
    a(0, 0) = 0.0f;
    a(1, 0) = 90.0f;
    a(2, 0) = 30.0f;
    const Imagef out = resize_area(a, 2, 1);
    EXPECT_NEAR(out(0, 0), (0.0 * 1.0 + 90.0 * 0.5) / 1.5, 1e-3);
    EXPECT_NEAR(out(1, 0), (90.0 * 0.5 + 30.0 * 1.0) / 1.5, 1e-3);
}

TEST(SampleBilinear, InterpolatesBetweenPixels)
{
    Imagef a(2, 1);
    a(0, 0) = 10.0f;
    a(1, 0) = 20.0f;
    EXPECT_NEAR(sample_bilinear(a, 0.5f, 0.0f), 15.0f, 1e-4f);
    EXPECT_NEAR(sample_bilinear(a, 0.25f, 0.0f), 12.5f, 1e-4f);
}

TEST(SampleBilinear, ClampsOutside)
{
    Imagef a(2, 2);
    a(0, 0) = 1.0f;
    a(1, 1) = 9.0f;
    EXPECT_NEAR(sample_bilinear(a, -3.0f, -3.0f), 1.0f, 1e-4f);
    EXPECT_NEAR(sample_bilinear(a, 10.0f, 10.0f), 9.0f, 1e-4f);
}

TEST(Translate, IntegerShiftMovesContent)
{
    Imagef a(5, 5, 1, 0.0f);
    a(1, 1) = 77.0f;
    const Imagef out = translate(a, 2.0f, 1.0f);
    EXPECT_NEAR(out(3, 2), 77.0f, 1e-3f);
    EXPECT_NEAR(out(1, 1), 0.0f, 1e-3f);
}

TEST(Translate, SubPixelShiftSplitsEnergy)
{
    Imagef a(4, 1, 1, 0.0f);
    a(1, 0) = 100.0f;
    const Imagef out = translate(a, 0.5f, 0.0f);
    EXPECT_NEAR(out(1, 0), 50.0f, 1e-3f);
    EXPECT_NEAR(out(2, 0), 50.0f, 1e-3f);
}

} // namespace
