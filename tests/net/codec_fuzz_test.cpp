// Table-driven adversarial coverage of the wire codec: truncated messages,
// unknown message tags, blob lengths past the buffer, random junk,
// single-byte corruption, and degenerate-but-legal payloads (zero-length
// ciphertext). The decoder must reject malformed input with an exception —
// never crash, never over-allocate, never hang. The framing layer above
// it has its own suite (tests/rt/frame_conn_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/message.h"
#include "src/util/rng.h"

namespace tc::net {
namespace {

struct DecodeCase {
  const char* name;
  util::Bytes wire;  // raw payload handed to decode_message
};

// Decodes c.wire in place from an exactly sized heap copy, so a read past
// the end trips AddressSanitizer; true if it was rejected. Rejecting by
// attempting a huge allocation counts as a failure.
bool rejected(const DecodeCase& c) {
  const auto copy = std::make_unique<std::uint8_t[]>(c.wire.size());
  std::copy(c.wire.begin(), c.wire.end(), copy.get());
  try {
    (void)decode_message(copy.get(), c.wire.size());
    return false;
  } catch (const std::bad_alloc&) {
    ADD_FAILURE() << c.name << ": decoder tried to over-allocate";
  } catch (const std::exception&) {
  }
  return true;
}

std::vector<DecodeCase> every_truncation(const char* name,
                                         const util::Bytes& valid) {
  std::vector<DecodeCase> cases;
  for (std::size_t cut = 1; cut < valid.size(); ++cut) {
    cases.push_back(
        {name, util::Bytes(valid.begin(),
                           valid.begin() + static_cast<std::ptrdiff_t>(cut))});
  }
  return cases;
}

EncryptedPieceMsg encrypted_piece(std::size_t ciphertext_len) {
  EncryptedPieceMsg m;
  m.tx = 9;
  m.chain = 3;
  m.donor = 1;
  m.requestor = 2;
  m.payee = 4;
  m.piece = 5;
  m.ciphertext = util::Bytes(ciphertext_len, 0xee);
  return m;
}

TEST(CodecFuzz, MalformedPayloadsAlwaysThrow) {
  const util::Bytes valid = encode_message(Message{HandshakeMsg{7, "swarm"}});
  const util::Bytes enc = encode_message(Message{encrypted_piece(3)});

  std::vector<DecodeCase> cases;
  cases.push_back({"empty payload", {}});
  cases.push_back({"unknown tag 0", {0x00}});
  cases.push_back({"unknown tag 12", {12}});
  cases.push_back({"unknown tag 255", {0xff, 0x01, 0x02}});
  // Every proper prefix of a valid handshake must be rejected, and of an
  // encrypted-piece message (nested byte vectors).
  for (DecodeCase& c : every_truncation("truncated handshake", valid))
    cases.push_back(std::move(c));
  for (DecodeCase& c : every_truncation("truncated encrypted piece", enc))
    cases.push_back(std::move(c));

  for (const DecodeCase& c : cases) {
    EXPECT_TRUE(rejected(c)) << c.name << " (" << c.wire.size() << " bytes)";
  }
}

TEST(CodecFuzz, TruncationsOfValidMessagesAlwaysThrow) {
  // A realistically sized ciphertext: cuts land deep inside the blob.
  const util::Bytes enc = encode_message(Message{encrypted_piece(300)});
  for (const DecodeCase& c : every_truncation("truncated encrypted piece", enc))
    EXPECT_TRUE(rejected(c)) << c.name << " (" << c.wire.size() << " bytes)";
}

TEST(CodecFuzz, LengthPrefixCannotOverAllocate) {
  // A key release whose blob claims 4 GiB with zero bytes present must be
  // rejected before any allocation of that size is attempted.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kKeyRelease));
  w.u64(1);            // tx
  w.u32(2);            // piece
  w.u32(0xffffffffu);  // blob length
  EXPECT_THROW((void)decode_message(w.data()), std::out_of_range);
}

// Random junk and single-byte flips may happen to decode (a flipped
// payload byte still leaves a well-formed message), but must never crash,
// read out of bounds or over-allocate.
TEST(CodecFuzz, RandomBytesNeverCrash) {
  util::Rng rng(0xf22);
  std::size_t random_rejected = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    util::Bytes junk(rng.index(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    random_rejected += rejected({"random bytes", std::move(junk)}) ? 1 : 0;
  }
  // Virtually everything random must be rejected.
  EXPECT_GT(random_rejected, 4900u);
}

TEST(CodecFuzz, SingleByteCorruptionIsHandled) {
  ReceiptMsg receipt;
  receipt.reciprocated_tx = 1;
  receipt.payee = 2;
  receipt.requestor = 3;
  receipt.piece = 4;
  const util::Bytes wire = encode_message(Message{receipt});
  for (std::size_t i = 0; i < wire.size(); ++i) {
    util::Bytes mutated = wire;
    mutated[i] ^= 0xff;
    (void)rejected({"single-byte flip", std::move(mutated)});
  }
}

TEST(CodecFuzz, ZeroLengthEncryptedPieceRoundTrips) {
  // A zero-length ciphertext is degenerate but well-formed; the codec must
  // carry it, not reject or misparse it.
  EncryptedPieceMsg m;
  m.tx = 1;
  m.donor = 2;
  m.requestor = 3;
  m.payee = 4;
  m.piece = 0;
  m.ciphertext = {};
  const Message back = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(std::holds_alternative<EncryptedPieceMsg>(back));
  EXPECT_EQ(std::get<EncryptedPieceMsg>(back), m);
}

}  // namespace
}  // namespace tc::net
