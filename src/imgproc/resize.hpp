// Resampling. The camera model downsamples the 1920x1080 screen image to
// the 1280x720 sensor grid (paper 4); area averaging models the photosite
// integration, bilinear handles sub-pixel misalignment.
#pragma once

#include "imgproc/image.hpp"

namespace inframe::img {

// Area-average (pixel-mixing) resize; correct for downscaling because every
// source pixel contributes proportionally to its overlap.
Imagef resize_area(const Imagef& src, int out_w, int out_h);

// Bilinear sample at a real-valued position (clamp-to-edge).
float sample_bilinear(const Imagef& src, float x, float y, int c = 0);

// Translates the image by a (possibly fractional) offset, clamp-to-edge.
Imagef translate(const Imagef& src, float dx, float dy);

} // namespace inframe::img
