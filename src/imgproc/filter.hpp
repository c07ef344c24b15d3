// Spatial filtering. The decoder's core operation is "smooth the block,
// subtract, sum |difference|" (paper 3.3); box_blur is that smoother.
// Gaussian blur models camera optics in the channel simulator.
#pragma once

#include "imgproc/image.hpp"

#include <vector>

namespace inframe::img {

// Separable box blur with clamp-to-edge borders. radius >= 0; radius 0 is a
// copy. Runs in O(pixels) per channel via sliding sums.
Imagef box_blur(const Imagef& src, int radius);

// Box blur with independent horizontal/vertical radii.
Imagef box_blur(const Imagef& src, int radius_x, int radius_y);

// Separable Gaussian blur; sigma <= 0 is a copy. Kernel truncated at
// ceil(3*sigma).
Imagef gaussian_blur(const Imagef& src, double sigma);

// Samples of a normalized 1-D Gaussian kernel for the given sigma.
std::vector<float> gaussian_kernel(double sigma);

// 1-D horizontal then vertical convolution with the same kernel
// (clamp-to-edge). Kernel size must be odd.
Imagef separable_convolve(const Imagef& src, std::span<const float> kernel);

} // namespace inframe::img
