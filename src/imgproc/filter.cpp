#include "imgproc/filter.hpp"

#include "imgproc/pool.hpp"
#include "simd/simd.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace inframe::img {

namespace {

// Rows per parallel chunk. Fixed (thread-count-independent) so chunk
// boundaries — and with them any per-chunk state — are deterministic.
constexpr std::int64_t row_grain = 16;

// Horizontal box blur for a band of rows: every (row, channel) pair is an
// independent sliding-window stream, so up to 8 of them ride in the vector
// lanes of one box_blur_h call. Each lane replays the exact scalar
// sequence (double window, float entering-leaving subtract, double add),
// so output is identical for any lane grouping and any SIMD level.
void box_blur_horizontal_band(const Imagef& src, Imagef& dst, int radius, int y_begin,
                              int y_end)
{
    const auto& k = simd::kernels();
    const int ch = src.channels();
    constexpr int max_lanes = 8;
    std::array<const float*, max_lanes> in{};
    std::array<float*, max_lanes> out{};
    int lanes = 0;
    for (int y = y_begin; y < y_end; ++y) {
        const float* in_row = src.row(y).data();
        float* out_row = dst.row(y).data();
        for (int c = 0; c < ch; ++c) {
            in[static_cast<std::size_t>(lanes)] = in_row + c;
            out[static_cast<std::size_t>(lanes)] = out_row + c;
            if (++lanes == max_lanes) {
                k.box_blur_h(in.data(), out.data(), lanes, src.width(), ch, radius);
                lanes = 0;
            }
        }
    }
    if (lanes > 0) k.box_blur_h(in.data(), out.data(), lanes, src.width(), ch, radius);
}

// Vertical box blur over a band of output rows, accumulating whole rows at a
// time: the inner loops stride unit distance through memory instead of
// jumping width*channels floats per step as a column-by-column pass would.
// The sliding window is a row of double sums, re-initialized at the band
// start; band boundaries depend only on the grain, so every thread count
// (including the serial path) produces identical output. The row-wide
// accumulate/update/store loops run through the simd dispatch table; the
// vector versions are elementwise and replicate the float-subtract-then-
// double-add order exactly, so results match the pre-SIMD code bit for bit.
void box_blur_vertical_band(const Imagef& src, Imagef& dst, int radius, int y_begin, int y_end)
{
    const auto& k = simd::kernels();
    const int height = src.height();
    const int row_values = static_cast<int>(src.row(0).size());
    const float norm = 1.0f / static_cast<float>(2 * radius + 1);

    std::vector<double> window(static_cast<std::size_t>(row_values), 0.0);
    for (int j = y_begin - radius; j <= y_begin + radius; ++j) {
        k.vblur_accum(window.data(), src.row(std::clamp(j, 0, height - 1)).data(), row_values);
    }
    for (int y = y_begin; y < y_end; ++y) {
        k.vblur_store(window.data(), dst.row(y).data(), row_values, norm);
        const float* leaving = src.row(std::clamp(y - radius, 0, height - 1)).data();
        const float* entering = src.row(std::clamp(y + radius + 1, 0, height - 1)).data();
        k.vblur_update(window.data(), entering, leaving, row_values);
    }
}

// One output row of a 1-D convolution: out[i] is `acc = 0.0; acc +=
// kernel[k] * taps[k][i]` over the taps in ascending order, each float
// product widened into the double sum. That is the per-value sequence of
// the clamp-to-edge definition; running it tap by tap over the whole row
// keeps the inner loop contiguous without changing any value's bits.
void convolve_row(std::span<const float> kernel, const float* const* taps,
                  std::vector<double>& acc, float* out)
{
    std::fill(acc.begin(), acc.end(), 0.0);
    for (std::size_t k = 0; k < kernel.size(); ++k) {
        const float w = kernel[k];
        const float* in = taps[k];
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += w * in[i];
    }
    for (std::size_t i = 0; i < acc.size(); ++i) out[i] = static_cast<float>(acc[i]);
}

} // namespace

Imagef box_blur(const Imagef& src, int radius_x, int radius_y)
{
    util::expects(radius_x >= 0 && radius_y >= 0, "box_blur radius must be non-negative");
    if (radius_x == 0 && radius_y == 0) return src;

    const int ch = src.channels();
    Imagef horizontal;
    if (radius_x > 0) {
        horizontal = Frame_pool::instance().acquire(src.width(), src.height(), ch);
        util::parallel_for(0, src.height(), row_grain, [&](std::int64_t y0, std::int64_t y1) {
            box_blur_horizontal_band(src, horizontal, radius_x, static_cast<int>(y0),
                                     static_cast<int>(y1));
        });
        if (radius_y == 0) return horizontal;
    }
    const Imagef& h_src = radius_x > 0 ? horizontal : src;

    Imagef out = Frame_pool::instance().acquire(src.width(), src.height(), ch);
    // Bands must be at least as tall as the radius or the O(radius) window
    // init dominates; the grain is still a pure function of the radius.
    const std::int64_t band = std::max<std::int64_t>(row_grain, radius_y);
    util::parallel_for(0, src.height(), band, [&](std::int64_t y0, std::int64_t y1) {
        box_blur_vertical_band(h_src, out, radius_y, static_cast<int>(y0),
                               static_cast<int>(y1));
    });
    if (radius_x > 0) Frame_pool::instance().recycle(std::move(horizontal));
    return out;
}

Imagef box_blur(const Imagef& src, int radius)
{
    return box_blur(src, radius, radius);
}

std::vector<float> gaussian_kernel(double sigma)
{
    util::expects(sigma > 0.0, "gaussian_kernel sigma must be positive");
    const int radius = std::max(1, static_cast<int>(std::ceil(3.0 * sigma)));
    std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
    double sum = 0.0;
    for (int i = -radius; i <= radius; ++i) {
        const double v = std::exp(-(static_cast<double>(i) * i) / (2.0 * sigma * sigma));
        kernel[static_cast<std::size_t>(i + radius)] = static_cast<float>(v);
        sum += v;
    }
    for (auto& k : kernel) k = static_cast<float>(k / sum);
    return kernel;
}

Imagef separable_convolve(const Imagef& src, std::span<const float> kernel)
{
    util::expects(kernel.size() % 2 == 1, "separable_convolve kernel size must be odd");
    const int radius = static_cast<int>(kernel.size() / 2);
    const int ch = src.channels();
    const int width = src.width();
    const int height = src.height();
    const auto row_values = static_cast<std::size_t>(width * ch);

    // Horizontal: each row is first copied into a buffer padded by radius
    // clamped pixels per side, after which tap k of value i is simply
    // padded[i + k * ch].
    Imagef horizontal = Frame_pool::instance().acquire(width, height, ch);
    util::parallel_for(0, height, row_grain, [&](std::int64_t y0, std::int64_t y1) {
        std::vector<float> padded(static_cast<std::size_t>((width + 2 * radius) * ch));
        std::vector<const float*> taps(kernel.size());
        for (std::size_t k = 0; k < taps.size(); ++k) taps[k] = padded.data() + k * ch;
        std::vector<double> acc(row_values);
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            const float* in = src.row(y).data();
            const float* last = in + (width - 1) * ch;
            float* left = padded.data();
            float* right = std::copy(in, in + row_values, left + radius * ch);
            for (int j = 0; j < radius * ch; ++j) {
                left[j] = in[j % ch];
                right[j] = last[j % ch];
            }
            convolve_row(kernel, taps.data(), acc, horizontal.row(y).data());
        }
    });

    // Vertical: clamp-to-edge only picks which row a tap reads.
    Imagef out = Frame_pool::instance().acquire(width, height, ch);
    util::parallel_for(0, height, row_grain, [&](std::int64_t y0, std::int64_t y1) {
        std::vector<const float*> taps(kernel.size());
        std::vector<double> acc(row_values);
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            for (int k = -radius; k <= radius; ++k) {
                taps[static_cast<std::size_t>(k + radius)] =
                    horizontal.row(std::clamp(y + k, 0, height - 1)).data();
            }
            convolve_row(kernel, taps.data(), acc, out.row(y).data());
        }
    });
    Frame_pool::instance().recycle(std::move(horizontal));
    return out;
}

Imagef gaussian_blur(const Imagef& src, double sigma)
{
    if (sigma <= 0.0) return src;
    return separable_convolve(src, gaussian_kernel(sigma));
}

} // namespace inframe::img
