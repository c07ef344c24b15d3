// Viewing-geometry calibration.
//
// The perspective decoder needs the sensor->screen homography. Instead of
// assuming a calibrated rig, the transmitter can flash a calibration frame
// — four white corner markers on black at known screen positions — and the
// receiver recovers the homography from one capture: threshold, take the
// bright-pixel centroid in each capture quadrant, and fit the projective
// map through the four correspondences. This is how a deployment would
// bootstrap before data decoding starts.
#pragma once

#include "coding/geometry.hpp"
#include "imgproc/warp.hpp"

#include <array>
#include <optional>

namespace inframe::core {

struct Calibration_params {
    // Marker square side as a fraction of the screen's smaller dimension.
    double marker_fraction = 0.08;

    // Marker centre inset from each screen corner, as a fraction of the
    // respective dimension.
    double inset_fraction = 0.08;

    float background = 0.0f;
    float marker_level = 255.0f;

    // Detection: a capture quadrant must contain at least this many
    // pixels above the adaptive threshold to count as a marker.
    int min_marker_pixels = 16;
};

// The four marker centres in screen coordinates (clockwise from top-left).
std::array<double, 8> calibration_marker_centers(const coding::Code_geometry& geometry,
                                                 const Calibration_params& params = {});

// Renders the calibration frame the transmitter shows.
img::Imagef render_calibration_frame(const coding::Code_geometry& geometry,
                                     const Calibration_params& params = {});

// Detects the four marker centroids in a capture (clockwise from
// top-left); nullopt if any quadrant lacks a bright blob.
std::optional<std::array<double, 8>>
detect_calibration_markers(const img::Imagef& capture, const Calibration_params& params = {});

// Full pipeline: detect markers and fit the sensor->screen homography.
std::optional<img::Homography>
estimate_sensor_to_screen(const img::Imagef& capture, const coding::Code_geometry& geometry,
                          const Calibration_params& params = {});

} // namespace inframe::core
