#include "imgproc/resize.hpp"

#include "imgproc/pool.hpp"
#include "simd/simd.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace inframe::img {

namespace {

// Rows per parallel chunk; fixed so partitioning is thread-count-invariant.
constexpr std::int64_t row_grain = 16;

// resize_area when both ratios are integers (kx, ky): every source pixel
// lies wholly inside one output pixel, so the generic overlap weights are
// all exactly 1 and each output value is a plain sum over its kx x ky tile
// divided by the tile area. The row pass adds tile rows into a double
// accumulator row in the generic loop's order (source rows outer, columns
// inner), so the sums, and the output bits, are the generic path's.
void resize_area_tiles(const Imagef& src, Imagef& out, int kx, int ky)
{
    const int ch = src.channels();
    const int row_values = out.width() * ch;
    if (kx == 1 && ky == 1) {
        // 1:1 is a copy up to the generic path's `0.0 + v`, which turns
        // -0 into +0; adding +0.0f reproduces exactly that.
        util::parallel_for(0, out.height(), row_grain, [&](std::int64_t y0, std::int64_t y1) {
            for (std::int64_t y = y0; y < y1; ++y) {
                const float* in = src.row(static_cast<int>(y)).data();
                float* dst = out.row(static_cast<int>(y)).data();
                for (int i = 0; i < row_values; ++i) dst[i] = in[i] + 0.0f;
            }
        });
        return;
    }
    const double area = static_cast<double>(kx) * static_cast<double>(ky);
    util::parallel_for(0, out.height(), row_grain, [&](std::int64_t y0, std::int64_t y1) {
        std::vector<double> acc(static_cast<std::size_t>(row_values));
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            std::fill(acc.begin(), acc.end(), 0.0);
            for (int sy = y * ky; sy < (y + 1) * ky; ++sy) {
                const float* in = src.row(sy).data();
                for (int x = 0; x < out.width(); ++x) {
                    const float* tile = in + static_cast<std::ptrdiff_t>(x) * kx * ch;
                    double* a = acc.data() + static_cast<std::ptrdiff_t>(x) * ch;
                    for (int t = 0; t < kx; ++t) {
                        for (int c = 0; c < ch; ++c) a[c] += tile[t * ch + c];
                    }
                }
            }
            float* dst = out.row(y).data();
            for (int i = 0; i < row_values; ++i) {
                dst[i] = static_cast<float>(acc[static_cast<std::size_t>(i)] / area);
            }
        }
    });
}

} // namespace

float sample_bilinear(const Imagef& src, float x, float y, int c)
{
    const float fx = std::clamp(x, 0.0f, static_cast<float>(src.width() - 1));
    const float fy = std::clamp(y, 0.0f, static_cast<float>(src.height() - 1));
    const int x0 = static_cast<int>(fx);
    const int y0 = static_cast<int>(fy);
    const int x1 = std::min(x0 + 1, src.width() - 1);
    const int y1 = std::min(y0 + 1, src.height() - 1);
    const float tx = fx - static_cast<float>(x0);
    const float ty = fy - static_cast<float>(y0);
    const float top = src(x0, y0, c) * (1.0f - tx) + src(x1, y0, c) * tx;
    const float bottom = src(x0, y1, c) * (1.0f - tx) + src(x1, y1, c) * tx;
    return top * (1.0f - ty) + bottom * ty;
}

Imagef resize_area(const Imagef& src, int out_w, int out_h)
{
    util::expects(out_w > 0 && out_h > 0, "resize_area output must be non-empty");
    Imagef out = Frame_pool::instance().acquire(out_w, out_h, src.channels());
    if (src.width() % out_w == 0 && src.height() % out_h == 0) {
        resize_area_tiles(src, out, src.width() / out_w, src.height() / out_h);
        return out;
    }
    const double sx = static_cast<double>(src.width()) / out_w;
    const double sy = static_cast<double>(src.height()) / out_h;
    util::parallel_for(0, out_h, row_grain, [&](std::int64_t band_y0, std::int64_t band_y1) {
        for (std::int64_t yy = band_y0; yy < band_y1; ++yy) {
            const int y = static_cast<int>(yy);
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
    });
    return out;
}

// The clamp/floor/fraction math of sample_bilinear is planned once per
// output column instead of once per (pixel, row). Plan indices are in value
// units (pixel * channels + c), so interleaved channels share one plan and
// one bilinear_row call per output row. The kernel's lerp order matches
// sample_bilinear exactly (mul/add, no FMA), so the output is bit-identical
// to sampling each pixel with sample_bilinear.
Imagef translate(const Imagef& src, float dx, float dy)
{
    const int w = src.width();
    const int h = src.height();
    const int ch = src.channels();
    Imagef out = Frame_pool::instance().acquire(w, h, ch);
    const auto n = static_cast<std::size_t>(w) * static_cast<std::size_t>(ch);
    std::vector<std::int32_t> idx0(n);
    std::vector<std::int32_t> idx1(n);
    std::vector<float> tx(n);
    for (int x = 0; x < w; ++x) {
        const float fx = std::clamp(static_cast<float>(x) - dx, 0.0f, static_cast<float>(w - 1));
        const int x0 = static_cast<int>(fx);
        const int x1 = std::min(x0 + 1, w - 1);
        for (int c = 0; c < ch; ++c) {
            const auto i = static_cast<std::size_t>(x * ch + c);
            idx0[i] = x0 * ch + c;
            idx1[i] = x1 * ch + c;
            tx[i] = fx - static_cast<float>(x0);
        }
    }
    const auto& k = simd::kernels();
    util::parallel_for(0, h, row_grain, [&](std::int64_t y0, std::int64_t y1) {
        for (std::int64_t yy = y0; yy < y1; ++yy) {
            const int y = static_cast<int>(yy);
            const float fy =
                std::clamp(static_cast<float>(y) - dy, 0.0f, static_cast<float>(h - 1));
            const int sy0 = static_cast<int>(fy);
            const int sy1 = std::min(sy0 + 1, h - 1);
            const float ty = fy - static_cast<float>(sy0);
            k.bilinear_row(src.row(sy0).data(), src.row(sy1).data(), idx0.data(), idx1.data(),
                           tx.data(), ty, out.row(y).data(), static_cast<int>(n));
        }
    });
    return out;
}

} // namespace inframe::img
