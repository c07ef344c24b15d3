#include "channel/link.hpp"

#include "imgproc/pool.hpp"
#include "telemetry/telemetry.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>
#include <cmath>

namespace inframe::channel {

Screen_camera_link::Screen_camera_link(Display_params display, Camera_params camera,
                                       int screen_width, int screen_height,
                                       const Impairment_config& impairments)
    : display_(display),
      camera_params_(camera),
      optics_(camera, screen_width, screen_height),
      impairments_(make_impairment_chain(impairments))
{
    util::expects(camera.phase_offset_s >= 0.0, "camera phase offset must be non-negative");
}

double Screen_camera_link::capture_start(std::int64_t k) const
{
    return camera_params_.phase_offset_s + static_cast<double>(k) / camera_params_.fps;
}

bool Screen_camera_link::observed(double from, double to) const
{
    // Row r of capture k integrates over [start_k + skew_r, start_k + skew_r
    // + exposure) with skew_r in [0, readout_s], so capture k can reach the
    // frame iff start_k < to and start_k + readout_s + exposure_s > from.
    // The slack widens that test far beyond the rounding in the per-row
    // window math of assemble_capture: a frame in doubt is projected.
    constexpr double slack = 1e-9;
    const double window = camera_params_.readout_s + camera_params_.exposure_s;
    // Windows only move later with k, so the first pending capture whose
    // window has not ended before `from` decides.
    for (std::int64_t k = capture_index_;; ++k) {
        const double start = capture_start(k);
        if (start >= to + slack) return false;
        if (start + window > from - slack) return true;
    }
}

bool Screen_camera_link::capture_complete(double now) const
{
    // Capture k is complete once the last row's exposure window has ended.
    const double end =
        capture_start(capture_index_) + camera_params_.readout_s + camera_params_.exposure_s;
    return end <= now + 1e-12;
}

std::vector<Capture> Screen_camera_link::push_display_frame(const img::Imagef& frame)
{
    const double period = display_.refresh_period();
    const double start_time = static_cast<double>(display_index_) * period;

    Buffered_frame buffered;
    buffered.start_time = start_time;
    buffered.end_time = start_time + period;
    // The display runs every refresh (its pixel response is stateful); the
    // optics only for frames some pending capture can see. `emitted` is
    // freed rather than recycled on purpose: the pipeline's video frames
    // are heap-allocated and recycled downstream, and returning this
    // buffer as well would grow Frame_pool by one frame per refresh up to
    // its cap (30 -> 49 MB peak RSS on a 480x270 carousel).
    const img::Imagef emitted = display_.emit(frame);
    if (observed(buffered.start_time, buffered.end_time)) {
        buffered.sensor_image = optics_.to_sensor(emitted);
        static const int projected_metric =
            telemetry::intern_metric("link.frames_projected", telemetry::Metric_kind::counter);
        telemetry::counter_add(projected_metric);
    } else {
        static const int skipped_metric =
            telemetry::intern_metric("link.frames_skipped", telemetry::Metric_kind::counter);
        telemetry::counter_add(skipped_metric);
    }
    buffer_.push_back(std::move(buffered));
    ++display_index_;

    std::vector<Capture> completed;
    const double now = static_cast<double>(display_index_) * period;
    while (capture_complete(now)) {
        Capture capture = assemble_capture();
        ++capture_index_;
        // Captures flow through the impairment chain serially in index
        // order; each stage's draws are a pure function of the capture
        // index, so the impaired stream is bit-identical at any thread
        // count.
        if (!impairments_.empty()
            && impairments_.apply(capture.image, capture.index) == Capture_fate::dropped) {
            ++captures_dropped_;
            static const int dropped_metric =
                telemetry::intern_metric("link.captures_dropped", telemetry::Metric_kind::counter);
            telemetry::counter_add(dropped_metric);
            img::Frame_pool::instance().recycle(std::move(capture.image));
            continue;
        }
        static const int delivered_metric =
            telemetry::intern_metric("link.captures_delivered", telemetry::Metric_kind::counter);
        telemetry::counter_add(delivered_metric);
        completed.push_back(std::move(capture));
    }
    trim_buffer();
    return completed;
}

Capture Screen_camera_link::assemble_capture()
{
    telemetry::Scoped_span span("link.capture");
    const double first_row_start = capture_start(capture_index_);
    const int rows = camera_params_.sensor_height;
    const int cols = camera_params_.sensor_width;
    const double exposure = camera_params_.exposure_s;
    // Skipped frames carry no image, so the layout comes from a projected
    // one (if none is buffered the coverage check below fails).
    const auto projected = std::find_if(buffer_.begin(), buffer_.end(), [](const auto& frame) {
        return !frame.sensor_image.empty();
    });
    const int channels = projected == buffer_.end() ? 1 : projected->sensor_image.channels();

    img::Imagef integrated = img::Frame_pool::instance().acquire(cols, rows, channels, 0.0f);
    // Rows integrate independently (each owns its exposure window and its
    // output row), so the rolling-shutter pass parallelizes over row bands.
    util::parallel_for(0, rows, 8, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t rr = r0; rr < r1; ++rr) {
            const int r = static_cast<int>(rr);
            // Row r starts integrating after its share of the readout skew.
            const double row_start =
                first_row_start
                + (rows > 1 ? camera_params_.readout_s * static_cast<double>(r) / (rows - 1)
                            : 0.0);
            const double row_end = row_start + exposure;
            auto out_row = integrated.row(r);
            double covered = 0.0;
            for (const auto& frame : buffer_) {
                const double overlap = std::min(frame.end_time, row_end)
                                       - std::max(frame.start_time, row_start);
                if (overlap <= 0.0) continue;
                util::ensures(!frame.sensor_image.empty(),
                              "capture window overlaps a display frame that was not projected");
                const auto weight = static_cast<float>(overlap / exposure);
                covered += overlap;
                const auto src_row = frame.sensor_image.row(r);
                for (std::size_t i = 0; i < out_row.size(); ++i) out_row[i] += weight * src_row[i];
            }
            util::ensures(covered >= exposure - 1e-9,
                          "capture exposure window not fully covered by buffered frames");
        }
    });

    // Per-row seeded noise streams: the noise field depends only on
    // (camera seed, capture index, row), never on thread scheduling.
    apply_sensor_noise_rows(integrated, camera_params_, capture_index_);

    Capture capture;
    capture.image = std::move(integrated);
    capture.index = capture_index_;
    capture.start_time = first_row_start;
    return capture;
}

void Screen_camera_link::trim_buffer()
{
    // Frames that end before the next capture's earliest window can never
    // contribute again.
    const double next_start = capture_start(capture_index_);
    while (!buffer_.empty() && buffer_.front().end_time <= next_start - 1e-12) {
        // The frame can never contribute again; recycle its sensor image
        // (empty for a skipped frame) for the next projection.
        img::Frame_pool::instance().recycle(std::move(buffer_.front().sensor_image));
        buffer_.pop_front();
    }
}

std::vector<Capture> run_link(const Display_params& display, const Camera_params& camera,
                              std::span<const img::Imagef> display_frames,
                              const Impairment_config& impairments)
{
    util::expects(!display_frames.empty(), "run_link needs display frames");
    Screen_camera_link link(display, camera, display_frames[0].width(),
                            display_frames[0].height(), impairments);
    std::vector<Capture> captures;
    for (const auto& frame : display_frames) {
        auto completed = link.push_display_frame(frame);
        for (auto& c : completed) captures.push_back(std::move(c));
    }
    return captures;
}

} // namespace inframe::channel
