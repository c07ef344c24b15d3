#include "core/session.hpp"

#include "channel/link.hpp"
#include "util/contract.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace inframe::core;
using inframe::img::Imagef;
using inframe::util::Contract_violation;

Inframe_config small_config()
{
    auto config = paper_config(480, 270);
    config.tau = 8;
    return config;
}

std::vector<std::uint8_t> bytes_of(const std::string& s)
{
    return {s.begin(), s.end()};
}

TEST(Session, MessageRoundTripOverCleanChannel)
{
    const auto config = small_config();
    const auto message =
        bytes_of("InFrame delivers data over ordinary video without anyone noticing. "
                 "This message spans several data frames to exercise reassembly.");
    Inframe_sender sender(config, message);
    Inframe_receiver receiver(make_decoder_params(config, 480, 270), sender.total_chunks());

    const Imagef video(480, 270, 1, 140.0f);
    // Clean, perfectly-synchronized 30 FPS "camera": every 4th display
    // frame. Enough display frames for one carousel pass plus slack.
    const auto frames_needed =
        static_cast<int>(sender.total_chunks() + 2) * config.tau;
    for (int j = 0; j < frames_needed; ++j) {
        const Imagef frame = sender.next_display_frame(video);
        if (j % 4 == 0) receiver.push_capture(frame, j / 120.0);
    }
    receiver.finish();
    EXPECT_TRUE(receiver.message_complete());
    EXPECT_EQ(receiver.message(), message);
    EXPECT_EQ(receiver.frames_rejected(), 0u);
}

TEST(Session, CarouselRepairsAMissedChunk)
{
    const auto config = small_config();
    const auto message = bytes_of(std::string(400, 'x') + "end marker");
    Inframe_sender sender(config, message, /*loop=*/true);
    ASSERT_GE(sender.total_chunks(), 3u);
    Inframe_receiver receiver(make_decoder_params(config, 480, 270), sender.total_chunks());

    const Imagef video(480, 270, 1, 140.0f);
    const auto pass_frames = static_cast<int>(sender.total_chunks()) * config.tau;
    // First pass: drop every capture of data frame 1 (a lost chunk).
    for (int j = 0; j < pass_frames; ++j) {
        const Imagef frame = sender.next_display_frame(video);
        const bool in_lost_frame = j / config.tau == 1;
        if (j % 4 == 0 && !in_lost_frame) receiver.push_capture(frame, j / 120.0);
    }
    EXPECT_FALSE(receiver.message_complete());
    // Second carousel pass retransmits everything.
    for (int j = pass_frames; j < 2 * pass_frames + config.tau; ++j) {
        const Imagef frame = sender.next_display_frame(video);
        if (j % 4 == 0) receiver.push_capture(frame, j / 120.0);
    }
    receiver.finish();
    EXPECT_TRUE(receiver.message_complete());
    EXPECT_EQ(receiver.message(), message);
}

TEST(Session, GarbageCapturesAreRejectedNotAccepted)
{
    const auto config = small_config();
    Inframe_receiver receiver(make_decoder_params(config, 480, 270), 1);
    inframe::util::Prng prng(9);
    Imagef junk(480, 270, 1, 0.0f);
    for (auto& v : junk.values()) v = static_cast<float>(prng.next_double(0.0, 255.0));
    receiver.push_capture(junk, 0.0);
    receiver.push_capture(junk, 8.0 / 120.0);
    receiver.finish();
    EXPECT_FALSE(receiver.message_complete());
    EXPECT_EQ(receiver.frames_decoded(), 0u);
}

TEST(Session, ExpectedChunksValidation)
{
    const auto config = small_config();
    EXPECT_THROW(Inframe_receiver(make_decoder_params(config, 480, 270), 0),
                 Contract_violation);
}

TEST(Session, MakeDecoderParamsCopiesLinkSettings)
{
    const auto config = small_config();
    const auto params = make_decoder_params(config, 320, 180);
    EXPECT_EQ(params.capture_width, 320);
    EXPECT_EQ(params.capture_height, 180);
    EXPECT_EQ(params.tau, config.tau);
    EXPECT_DOUBLE_EQ(params.display_fps, config.display_fps);
    EXPECT_EQ(params.geometry.blocks_x, config.geometry.blocks_x);
}

TEST(Session, SenderReportsChunkCount)
{
    const auto config = small_config();
    const auto framer = inframe::coding::Rs_framer::for_parity_fraction(
        config.geometry.payload_bits_per_frame(), Session_options{}.rs_parity_fraction);
    const auto message = bytes_of(std::string(
        static_cast<std::size_t>(framer.max_payload_bytes()) * 2 + 1, 'a'));
    Inframe_sender sender(config, message);
    EXPECT_EQ(sender.total_chunks(), 3u);
}

} // namespace
