// Screen-camera link: composes the display and camera models with the
// timing math that produces the paper's channel impairments.
//
// Display frames are pushed at the refresh cadence; the link projects each
// onto the sensor plane and integrates per-row exposure windows against the
// piecewise-constant light field. Because rows start their exposure at
// staggered times (rolling shutter), a single capture can mix adjacent
// display frames differently per row — exactly the distortion the InFrame
// decoder must tolerate (3.3). Frame-rate mismatch and phase drift come
// out of the same timing model for free.
//
// Optics are lazy: every frame goes through the display model (its pixel
// response carries state from refresh to refresh), but only frames whose
// interval overlaps some pending capture's exposure window are projected
// onto the sensor. The rest stay buffered without a sensor image; no row
// of any capture integrates them, so captures are bit-identical to
// projecting every frame (DESIGN.md, "Lazy optics").
#pragma once

#include "channel/camera.hpp"
#include "channel/display.hpp"
#include "channel/impairment.hpp"

#include <cstdint>
#include <deque>
#include <vector>

namespace inframe::channel {

struct Capture {
    img::Imagef image;

    // Capture sequence number (k-th camera frame).
    std::int64_t index = 0;

    // Time the first row began integrating, seconds.
    double start_time = 0.0;
};

class Screen_camera_link {
public:
    // `impairments` describes a fault-injection chain applied to every
    // completed capture (drops, duplication, drift, shake, tear,
    // occlusion); the default config builds an empty chain.
    Screen_camera_link(Display_params display, Camera_params camera, int screen_width,
                       int screen_height, const Impairment_config& impairments = {});

    // Pushes the next logical display frame (refresh cadence). Returns the
    // captures completed by the end of this refresh interval (usually zero
    // or one). Captures the impairment chain drops never appear here.
    std::vector<Capture> push_display_frame(const img::Imagef& frame);

    // Number of display frames pushed so far.
    std::int64_t display_frames_pushed() const { return display_index_; }

    // Captures the impairment chain swallowed so far.
    std::int64_t captures_dropped() const { return captures_dropped_; }

    // Expected captures per second.
    double capture_rate() const { return camera_params_.fps; }

    const Camera_params& camera_params() const { return camera_params_; }
    const Display_params& display_params() const { return display_.params(); }

private:
    struct Buffered_frame {
        // Empty when no capture window overlaps the frame (not projected).
        img::Imagef sensor_image;
        double start_time;
        double end_time;
    };

    // Time the first row of capture k starts integrating.
    double capture_start(std::int64_t k) const;
    // Whether the display interval [from, to) may overlap the exposure
    // window of a capture not yet assembled (conservative).
    bool observed(double from, double to) const;
    bool capture_complete(double now) const;
    Capture assemble_capture();
    void trim_buffer();

    Display_model display_;
    Camera_params camera_params_;
    Camera_optics optics_;
    Impairment_chain impairments_;
    std::deque<Buffered_frame> buffer_;
    std::int64_t display_index_ = 0;
    std::int64_t capture_index_ = 0;
    std::int64_t captures_dropped_ = 0;
};

// Convenience: run a prepared sequence of display frames through a fresh
// link (with the given fault-injection chain on the capture stream) and
// collect all completed captures.
std::vector<Capture> run_link(const Display_params& display, const Camera_params& camera,
                              std::span<const img::Imagef> display_frames,
                              const Impairment_config& impairments = {});

} // namespace inframe::channel
