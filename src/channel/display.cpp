#include "channel/display.hpp"

#include "imgproc/image_ops.hpp"
#include "util/contract.hpp"

#include <algorithm>

namespace inframe::channel {

Display_model::Display_model(Display_params params) : params_(params)
{
    util::expects(params.refresh_hz > 0.0, "display refresh rate must be positive");
    util::expects(params.brightness > 0.0 && params.brightness <= 1.0,
                  "display brightness must be in (0, 1]");
    util::expects(params.response_persistence >= 0.0 && params.response_persistence < 1.0,
                  "pixel response persistence must be in [0, 1)");
    util::expects(params.black_level >= 0.0, "black level must be non-negative");
}

img::Imagef Display_model::emit(const img::Imagef& frame)
{
    util::expects(!frame.empty(), "display cannot emit an empty frame");
    // affine() hands back pool storage; the pixel response blends into it
    // in place, so the only per-refresh copy is into previous_emitted_,
    // whose storage persists across refreshes.
    img::Imagef out =
        img::affine(frame, static_cast<float>(params_.brightness),
                    static_cast<float>(params_.black_level));
    img::clamp(out, 0.0f, 255.0f);
    if (params_.response_persistence <= 0.0) return out;

    const auto persistence = static_cast<float>(params_.response_persistence);
    auto dst = out.values();
    if (has_previous_ && previous_emitted_.same_shape(out)) {
        const auto prev = previous_emitted_.values();
        for (std::size_t i = 0; i < dst.size(); ++i) {
            dst[i] = prev[i] * persistence + dst[i] * (1.0f - persistence);
        }
    }
    if (!previous_emitted_.same_shape(out)) {
        previous_emitted_ = img::Imagef(out.width(), out.height(), out.channels());
    }
    std::copy(dst.begin(), dst.end(), previous_emitted_.values().begin());
    has_previous_ = true;
    return out;
}

void Display_model::reset()
{
    has_previous_ = false;
}

} // namespace inframe::channel
