#include "src/net/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/core/exchange.h"
#include "src/crypto/hmac.h"
#include "tests/net/sample_messages.h"

namespace tc::net {
namespace {

// Decodes through the pointer overload from an exactly sized heap copy, so
// a read past the end trips AddressSanitizer.
Message decode_in_place(const util::Bytes& wire) {
  const auto copy = std::make_unique<std::uint8_t[]>(wire.size());
  std::copy(wire.begin(), wire.end(), copy.get());
  return decode_message(copy.get(), wire.size());
}

template <typename T>
T round_trip(const T& msg) {
  const Message decoded = decode_message(encode_message(Message{msg}));
  return std::get<T>(decoded);
}

TEST(Message, HandshakeRoundTrip) {
  HandshakeMsg m{42, "swarm-infohash-xyz"};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, BitfieldRoundTrip) {
  BitfieldMsg m;
  m.piece_count = 19;
  m.bits = {0xff, 0x03, 0x01};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, HaveRoundTrip) {
  EXPECT_EQ(round_trip(HaveMsg{1234}), HaveMsg{1234});
}

TEST(Message, EncryptedPieceRoundTrip) {
  EncryptedPieceMsg m;
  m.tx = 0x1122334455667788ull;
  m.chain = 77;
  m.donor = 1;
  m.requestor = 2;
  m.payee = 3;
  m.piece = 99;
  m.prev_donor = 4;
  // Ids are (peer << 32) | counter: the high word must survive.
  m.prev_tx = (std::uint64_t{4} << 32) | 88;
  m.ciphertext = util::Bytes(1000, 0x5a);
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, PlainPieceRoundTrip) {
  PlainPieceMsg m;
  m.tx = 9;
  m.chain = 8;
  m.donor = 7;
  m.piece = 6;
  m.prev_donor = kNoPeer;
  m.prev_tx = 0;
  m.data = {1, 2, 3};
  EXPECT_EQ(round_trip(m), m);

  m.prev_donor = 0xfffffffeu;
  m.prev_tx = 0xfffffffe00000007ull;
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, ReceiptRoundTrip) {
  ReceiptMsg m;
  m.reciprocated_tx = 5;
  m.payee = 3;
  m.requestor = 2;
  m.piece = 10;
  m.mac = crypto::sha256("x");
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, KeyReleaseRoundTrip) {
  KeyReleaseMsg m;
  m.tx = 11;
  m.piece = 12;
  m.key = util::Bytes(44, 0xab);
  EXPECT_EQ(round_trip(m), m);
}

TEST(Message, PayeeReassignRoundTrip) {
  EXPECT_EQ(round_trip(PayeeReassignMsg{5, 42}), (PayeeReassignMsg{5, 42}));
}

TEST(Message, TypeTags) {
  EXPECT_EQ(message_type(Message{HandshakeMsg{}}), MsgType::kHandshake);
  EXPECT_EQ(message_type(Message{EncryptedPieceMsg{}}), MsgType::kEncryptedPiece);
  EXPECT_EQ(message_type(Message{ReceiptMsg{}}), MsgType::kReceipt);
}

TEST(Message, DecodeRejectsUnknownType) {
  util::Bytes bad{0x7f, 0x00};
  EXPECT_THROW(decode_message(bad), std::invalid_argument);
  // Tag 11 is retired: a frame of its old body size is rejected too.
  util::Bytes retired(1 + 28, 0x00);
  retired[0] = 11;
  EXPECT_THROW(decode_message(retired), std::invalid_argument);
}

TEST(Message, DecodeRejectsTrailingBytes) {
  auto wire = encode_message(Message{HaveMsg{1}});
  wire.push_back(0x00);
  EXPECT_THROW(decode_message(wire), std::invalid_argument);
}

TEST(Message, DecodeRejectsTruncation) {
  auto wire = encode_message(Message{EncryptedPieceMsg{}});
  wire.resize(wire.size() / 2);
  EXPECT_THROW(decode_message(wire), std::out_of_range);
}

TEST(Message, EveryTypeRoundTripsInPlace) {
  const std::vector<Message> all = one_of_each_type();
  ASSERT_EQ(all.size(), std::variant_size_v<Message>);
  for (const Message& m : all) {
    SCOPED_TRACE(static_cast<int>(message_type(m)));
    EXPECT_EQ(decode_in_place(encode_message(m)), m);
  }
}

TEST(Message, DecodeInPlaceRejectsMalformedFrames) {
  for (const Message& m : one_of_each_type()) {
    SCOPED_TRACE(static_cast<int>(message_type(m)));
    auto wire = encode_message(m);
    wire.push_back(0x00);
    EXPECT_THROW(decode_in_place(wire), std::invalid_argument);
    wire.resize(wire.size() - 2);
    EXPECT_THROW(decode_in_place(wire), std::out_of_range);
  }
  util::Bytes retired(1 + 28, 0x00);
  retired[0] = 11;
  EXPECT_THROW(decode_in_place(retired), std::invalid_argument);
}

TEST(ReceiptMac, DeterministicAndKeyed) {
  const auto k1 = core::derive_mac_key(1, 3);
  const auto k2 = core::derive_mac_key(3, 1);
  EXPECT_EQ(k1, k2);  // order-independent
  const auto m1 = receipt_mac(k1, 7, 3, 2, 10);
  const auto m2 = receipt_mac(k2, 7, 3, 2, 10);
  EXPECT_TRUE(crypto::digest_equal(m1, m2));
  // Any field change breaks the MAC.
  EXPECT_FALSE(crypto::digest_equal(m1, receipt_mac(k1, 8, 3, 2, 10)));
  EXPECT_FALSE(crypto::digest_equal(m1, receipt_mac(k1, 7, 4, 2, 10)));
  EXPECT_FALSE(crypto::digest_equal(m1, receipt_mac(k1, 7, 3, 5, 10)));
  EXPECT_FALSE(crypto::digest_equal(m1, receipt_mac(k1, 7, 3, 2, 11)));
  // And a different pairwise key breaks it.
  EXPECT_FALSE(
      crypto::digest_equal(m1, receipt_mac(core::derive_mac_key(1, 4), 7, 3, 2, 10)));
}

}  // namespace
}  // namespace tc::net
