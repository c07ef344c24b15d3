#include "core/session.hpp"

#include "util/contract.hpp"

namespace inframe::core {

Inframe_sender::Inframe_sender(Inframe_config config, std::vector<std::uint8_t> message,
                               bool loop, Session_options options)
    : encoder_(config),
      codec_(coding::Rs_framer::for_parity_fraction(config.geometry.payload_bits_per_frame(),
                                                    options.rs_parity_fraction)),
      loop_(loop)
{
    chunks_ = coding::chunk_message(message, codec_.max_payload_bytes());
    refill_queue();
}

void Inframe_sender::refill_queue()
{
    // Keep a couple of data frames queued so the encoder can smooth into
    // the *next* frame's bits.
    while (encoder_.queued_data_frames() < 3) {
        const std::size_t chunk_index = next_sequence_ % chunks_.size();
        if (!loop_ && next_sequence_ >= chunks_.size()) break;
        const auto bits = codec_.build(next_sequence_, chunks_[chunk_index]);
        encoder_.queue_payload(bits);
        ++next_sequence_;
    }
}

img::Imagef Inframe_sender::next_display_frame(const img::Imagef& video_frame)
{
    refill_queue();
    return encoder_.next_display_frame(video_frame);
}

Inframe_receiver::Inframe_receiver(Decoder_params params, std::size_t expected_chunks,
                                   Session_options options)
    : decoder_(std::move(params)),
      codec_(coding::Rs_framer::for_parity_fraction(
          decoder_.params().geometry.payload_bits_per_frame(), options.rs_parity_fraction)),
      expected_chunks_(expected_chunks)
{
    util::expects(expected_chunks >= 1, "receiver: expected chunk count must be positive");
}

void Inframe_receiver::ingest(const Data_frame_result& result)
{
    const auto parsed =
        codec_.parse(result.gob.payload_bits, result.gob.payload_bit_trusted);
    if (!parsed) {
        ++frames_rejected_;
        return;
    }
    ++frames_decoded_;
    const std::uint32_t chunk_index = parsed->sequence % expected_chunks_;
    chunks_.emplace(chunk_index, parsed->payload);
}

void Inframe_receiver::push_capture(const img::Imagef& capture, double start_time)
{
    for (const auto& result : decoder_.push_capture(capture, start_time)) ingest(result);
}

void Inframe_receiver::finish()
{
    if (const auto result = decoder_.flush()) ingest(*result);
}

bool Inframe_receiver::message_complete() const
{
    if (chunks_.size() < expected_chunks_) return false;
    for (std::uint32_t i = 0; i < expected_chunks_; ++i) {
        if (!chunks_.contains(i)) return false;
    }
    return true;
}

std::vector<std::uint8_t> Inframe_receiver::message() const
{
    if (!message_complete()) return {};
    std::vector<std::uint8_t> out;
    for (std::uint32_t i = 0; i < expected_chunks_; ++i) {
        const auto& chunk = chunks_.at(i);
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    return out;
}

Decoder_params make_decoder_params(const Inframe_config& config, int capture_width,
                                   int capture_height)
{
    Decoder_params params;
    params.geometry = config.geometry;
    params.capture_width = capture_width;
    params.capture_height = capture_height;
    params.tau = config.tau;
    params.display_fps = config.display_fps;
    params.validate();
    return params;
}

} // namespace inframe::core
