// Wire protocol for T-Chain (Figure 1 of the paper).
//
// An encrypted-piece message carries the triple the paper writes as
//   [ (i1, A) | K^{i2}_{B,C}[p_i2] | D ]
// i.e. the back-reference to the transaction being reciprocated (its donor
// A and its id i1), the ciphertext, and the designated payee of the *next*
// transaction. Receipts are the "r_C = [B | i1]" reception reports the
// payee sends A on delivery, naming i1 from that back-reference and
// authenticated with an HMAC-SHA256 tag so they cannot be forged by spoofed
// senders.
//
// These structs are used byte-for-byte by the real TCP transport (src/rt)
// and by serialization tests; the event-driven
// simulator passes them by value without encoding.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/crypto/cipher.h"
#include "src/crypto/sha256.h"
#include "src/net/peer_id.h"
#include "src/util/bytes.h"

namespace tc::net {

using PieceIndex = std::uint32_t;
constexpr PieceIndex kNoPiece = 0xffffffffu;
using TxId = std::uint64_t;

struct HandshakeMsg {
  PeerId peer = kNoPeer;
  std::string swarm;  // infohash-like swarm name
  bool operator==(const HandshakeMsg&) const = default;
};

struct BitfieldMsg {
  std::uint32_t piece_count = 0;
  util::Bytes bits;  // packed little-endian bit i of byte i/8
  bool operator==(const BitfieldMsg&) const = default;
};

struct HaveMsg {
  PieceIndex piece = kNoPiece;
  bool operator==(const HaveMsg&) const = default;
};

// Donor -> requestor: the encrypted piece plus triangle bookkeeping.
struct EncryptedPieceMsg {
  TxId tx = 0;               // this transaction
  std::uint64_t chain = 0;   // chain the transaction belongs to
  PeerId donor = kNoPeer;
  PeerId requestor = kNoPeer;
  PeerId payee = kNoPeer;    // whom the requestor must reciprocate to
  PieceIndex piece = kNoPiece;
  // Back-reference "(i1, A)": the transaction this upload reciprocates and
  // its donor, whom the payee receipts. kNoPeer/0 for a chain-initiating
  // upload ("null").
  PeerId prev_donor = kNoPeer;
  TxId prev_tx = 0;
  util::Bytes ciphertext;
  bool operator==(const EncryptedPieceMsg&) const = default;
};

// Unencrypted upload: chain termination (Figure 1(c)) — releases the
// recipient from any obligation.
struct PlainPieceMsg {
  TxId tx = 0;
  std::uint64_t chain = 0;
  PeerId donor = kNoPeer;
  PieceIndex piece = kNoPiece;
  PeerId prev_donor = kNoPeer;
  TxId prev_tx = 0;
  util::Bytes data;
  bool operator==(const PlainPieceMsg&) const = default;
};

// Payee -> donor of the reciprocated transaction: "B reciprocated i1".
struct ReceiptMsg {
  TxId reciprocated_tx = 0;  // the donor's transaction being paid for
  PeerId payee = kNoPeer;
  PeerId requestor = kNoPeer;  // who reciprocated
  PieceIndex piece = kNoPiece; // piece the payee received
  crypto::Digest256 mac{};     // HMAC over the above fields
  bool operator==(const ReceiptMsg&) const = default;
};

// Donor -> requestor: decryption key release, completing the transaction.
struct KeyReleaseMsg {
  TxId tx = 0;
  PieceIndex piece = kNoPiece;
  util::Bytes key;  // serialized SymmetricKey
  bool operator==(const KeyReleaseMsg&) const = default;
};

// Donor -> requestor: the payee left or needs nothing; reciprocate to the
// replacement instead (§II-B4).
struct PayeeReassignMsg {
  TxId tx = 0;
  PeerId new_payee = kNoPeer;
  bool operator==(const PayeeReassignMsg&) const = default;
};

// Peer -> tracker: join the swarm. The peer stays a member while this
// connection is open; closing it is the depart. `port` is where the
// peer's own listener accepts connections.
struct AnnounceMsg {
  PeerId peer = kNoPeer;
  std::string swarm;  // infohash-like swarm name
  std::uint16_t port = 0;
  bool operator==(const AnnounceMsg&) const = default;
};

struct PeerEndpoint {
  PeerId peer = kNoPeer;
  std::uint16_t port = 0;
  bool operator==(const PeerEndpoint&) const = default;
};

// Tracker -> peer: the reply to an announce lists every other member,
// sorted by id; afterwards the tracker pushes each later joiner as a
// one-entry list.
struct PeerListMsg {
  std::vector<PeerEndpoint> peers;
  bool operator==(const PeerListMsg&) const = default;
};

using Message =
    std::variant<HandshakeMsg, BitfieldMsg, HaveMsg, EncryptedPieceMsg,
                 PlainPieceMsg, ReceiptMsg, KeyReleaseMsg, PayeeReassignMsg,
                 AnnounceMsg, PeerListMsg>;

// Stable on-the-wire tags.
enum class MsgType : std::uint8_t {
  kHandshake = 1,
  kBitfield = 2,
  kHave = 3,
  kEncryptedPiece = 4,
  kPlainPiece = 5,
  kReceipt = 6,
  kKeyRelease = 7,
  kPayeeReassign = 8,
  kAnnounce = 9,
  kPeerList = 10,
  // 11 is retired: decode rejects it, so it must not be reused.
};

MsgType message_type(const Message& m);

util::Bytes encode_message(const Message& m);
// Appends encode_message(m) to `out`, so a framed writer can encode straight
// into its send buffer.
void encode_message_to(const Message& m, util::Bytes& out);
// Throws std::out_of_range / std::invalid_argument on malformed input.
// Reads exactly [wire, wire + len), so a frame decodes in place from a
// receive buffer.
Message decode_message(const std::uint8_t* wire, std::size_t len);
Message decode_message(const util::Bytes& wire);

// HMAC tag for a receipt, keyed with the pairwise secret shared by payee
// and donor (how that secret is provisioned is deployment-specific; tests
// and the TCP demo derive it from the peer ids).
crypto::Digest256 receipt_mac(const util::Bytes& mac_key, TxId reciprocated_tx,
                              PeerId payee, PeerId requestor, PieceIndex piece);

}  // namespace tc::net
