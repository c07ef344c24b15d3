#include "coding/framing.hpp"

#include "util/contract.hpp"
#include "util/prng.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

using namespace inframe::coding;
using inframe::util::Contract_violation;
using inframe::util::Prng;

std::vector<std::uint8_t> bytes_of(const std::string& s)
{
    return {s.begin(), s.end()};
}

TEST(ChunkMessage, SplitsAndPreservesOrder)
{
    const auto message = bytes_of("abcdefghij");
    const auto chunks = chunk_message(message, 4);
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0], bytes_of("abcd"));
    EXPECT_EQ(chunks[1], bytes_of("efgh"));
    EXPECT_EQ(chunks[2], bytes_of("ij"));
}

TEST(ChunkMessage, EmptyMessageYieldsOneEmptyChunk)
{
    const auto chunks = chunk_message({}, 4);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_TRUE(chunks[0].empty());
}

TEST(ChunkMessage, Validation)
{
    EXPECT_THROW(chunk_message(bytes_of("x"), 0), Contract_violation);
}

TEST(RsFramer, RoundTripClean)
{
    const Rs_framer framer(1125, 64, 40);
    const auto payload = bytes_of("rs protected payload");
    const auto bits = framer.build(5, payload);
    ASSERT_EQ(bits.size(), 1125u);
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->sequence, 5u);
    EXPECT_EQ(parsed->payload, payload);
    EXPECT_EQ(parsed->corrected_symbols, 0);
}

TEST(RsFramer, CorrectsScatteredBitErrors)
{
    const Rs_framer framer(1125, 64, 40); // t = 12 symbols
    const auto payload = bytes_of("resilient");
    auto bits = framer.build(5, payload);
    // Flip bits in 6 different symbols.
    for (const std::size_t pos : {3u, 77u, 150u, 222u, 301u, 410u}) bits[pos] ^= 1;
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payload, payload);
    EXPECT_GT(parsed->corrected_symbols, 0);
}

TEST(RsFramer, GivesUpBeyondCapacity)
{
    const Rs_framer framer(1125, 32, 26); // t = 3 symbols
    auto bits = framer.build(5, bytes_of("x"));
    Prng prng(8);
    // Corrupt ~10 symbols.
    for (int i = 0; i < 80; ++i) bits[prng.next_below(32 * 8)] ^= 1;
    const auto parsed = framer.parse(bits);
    if (parsed.has_value()) {
        // Miscorrection is possible but must not reproduce the original.
        EXPECT_NE(parsed->payload, bytes_of("x"));
    }
}

TEST(RsFramer, CapacityValidation)
{
    EXPECT_THROW(Rs_framer(100, 64, 40), Contract_violation);
    const Rs_framer framer(1125, 64, 40);
    EXPECT_EQ(framer.max_payload_bytes(), 28);
    const std::vector<std::uint8_t> too_big(29, 0);
    EXPECT_THROW(framer.build(0, too_big), Contract_violation);
}

TEST(RsFramer, EmptyPayload)
{
    const Rs_framer framer(500, 32, 20);
    const auto bits = framer.build(3, {});
    ASSERT_EQ(bits.size(), 500u);
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->sequence, 3u);
    EXPECT_TRUE(parsed->payload.empty());
}

TEST(RsFramer, WrongSizeRejected)
{
    const Rs_framer framer(1125, 64, 40);
    const auto bits = framer.build(1, bytes_of("payload"));
    const std::vector<std::uint8_t> short_bits(bits.begin(), bits.end() - 125);
    EXPECT_FALSE(framer.parse(short_bits).has_value());
    std::vector<std::uint8_t> long_bits = bits;
    long_bits.push_back(0);
    EXPECT_FALSE(framer.parse(long_bits).has_value());
}

TEST(RsFramer, FillerIsDeterministicPerSequence)
{
    const Rs_framer framer(1125, 64, 40);
    const auto a = framer.build(9, bytes_of("x"));
    const auto b = framer.build(9, bytes_of("x"));
    EXPECT_EQ(a, b);
    const auto c = framer.build(10, bytes_of("x"));
    EXPECT_NE(a, c);
}

TEST(RsFramer, CapacityAccounting)
{
    // 1125 bits hold 140 symbols; 55% parity is 77 of them -> RS(140, 63).
    const auto framer = Rs_framer::for_parity_fraction(1125, 0.55);
    EXPECT_EQ(framer.max_payload_bytes(), 63 - 12);
    // Frames longer than 255 bytes still use one 255-symbol codeword.
    EXPECT_EQ(Rs_framer::for_parity_fraction(4000, 0.5).max_payload_bytes(), 255 - 127 - 12);
    // A 2-symbol parity floor applies however small the fraction.
    EXPECT_EQ(Rs_framer::for_parity_fraction(1125, 0.001).max_payload_bytes(), 140 - 2 - 12);
    const auto bits = framer.build(4, bytes_of("sized"));
    ASSERT_EQ(bits.size(), 1125u);
    const auto parsed = framer.parse(bits);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->payload, bytes_of("sized"));
}

TEST(RsFramer, TooSmallCapacityRejected)
{
    // 13 data symbols are the floor: the 12-byte header plus one payload
    // byte. 192 bits -> RS(24, 12); 200 bits -> RS(25, 13).
    EXPECT_THROW(Rs_framer::for_parity_fraction(192, 0.5), Contract_violation);
    EXPECT_EQ(Rs_framer::for_parity_fraction(200, 0.5).max_payload_bytes(), 1);
    EXPECT_THROW(Rs_framer::for_parity_fraction(1125, 0.0), Contract_violation);
    EXPECT_THROW(Rs_framer::for_parity_fraction(1125, 1.0), Contract_violation);
}

} // namespace
