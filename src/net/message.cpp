#include "src/net/message.h"

#include <stdexcept>

#include "src/crypto/hmac.h"

namespace tc::net {

MsgType message_type(const Message& m) {
  return static_cast<MsgType>(m.index() + 1);
}

namespace {

void encode_body(util::ByteWriter& w, const HandshakeMsg& m) {
  w.u32(m.peer);
  w.str(m.swarm);
}

void encode_body(util::ByteWriter& w, const BitfieldMsg& m) {
  w.u32(m.piece_count);
  w.blob(m.bits);
}

void encode_body(util::ByteWriter& w, const HaveMsg& m) { w.u32(m.piece); }

void encode_body(util::ByteWriter& w, const EncryptedPieceMsg& m) {
  w.u64(m.tx);
  w.u64(m.chain);
  w.u32(m.donor);
  w.u32(m.requestor);
  w.u32(m.payee);
  w.u32(m.piece);
  w.u32(m.prev_donor);
  w.u64(m.prev_tx);
  w.blob(m.ciphertext);
}

void encode_body(util::ByteWriter& w, const PlainPieceMsg& m) {
  w.u64(m.tx);
  w.u64(m.chain);
  w.u32(m.donor);
  w.u32(m.piece);
  w.u32(m.prev_donor);
  w.u64(m.prev_tx);
  w.blob(m.data);
}

void encode_body(util::ByteWriter& w, const ReceiptMsg& m) {
  w.u64(m.reciprocated_tx);
  w.u32(m.payee);
  w.u32(m.requestor);
  w.u32(m.piece);
  w.raw(m.mac.data(), m.mac.size());
}

void encode_body(util::ByteWriter& w, const KeyReleaseMsg& m) {
  w.u64(m.tx);
  w.u32(m.piece);
  w.blob(m.key);
}

void encode_body(util::ByteWriter& w, const PayeeReassignMsg& m) {
  w.u64(m.tx);
  w.u32(m.new_payee);
}

void encode_body(util::ByteWriter& w, const AnnounceMsg& m) {
  w.u32(m.peer);
  w.str(m.swarm);
  w.u16(m.port);
}

void encode_body(util::ByteWriter& w, const PeerListMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.peers.size()));
  for (const PeerEndpoint& e : m.peers) {
    w.u32(e.peer);
    w.u16(e.port);
  }
}

HandshakeMsg decode_handshake(util::ByteReader& r) {
  HandshakeMsg m;
  m.peer = r.u32();
  m.swarm = r.str();
  return m;
}

BitfieldMsg decode_bitfield(util::ByteReader& r) {
  BitfieldMsg m;
  m.piece_count = r.u32();
  m.bits = r.blob();
  return m;
}

HaveMsg decode_have(util::ByteReader& r) { return HaveMsg{r.u32()}; }

EncryptedPieceMsg decode_encrypted(util::ByteReader& r) {
  EncryptedPieceMsg m;
  m.tx = r.u64();
  m.chain = r.u64();
  m.donor = r.u32();
  m.requestor = r.u32();
  m.payee = r.u32();
  m.piece = r.u32();
  m.prev_donor = r.u32();
  m.prev_tx = r.u64();
  m.ciphertext = r.blob();
  return m;
}

PlainPieceMsg decode_plain(util::ByteReader& r) {
  PlainPieceMsg m;
  m.tx = r.u64();
  m.chain = r.u64();
  m.donor = r.u32();
  m.piece = r.u32();
  m.prev_donor = r.u32();
  m.prev_tx = r.u64();
  m.data = r.blob();
  return m;
}

ReceiptMsg decode_receipt(util::ByteReader& r) {
  ReceiptMsg m;
  m.reciprocated_tx = r.u64();
  m.payee = r.u32();
  m.requestor = r.u32();
  m.piece = r.u32();
  for (auto& b : m.mac) b = r.u8();
  return m;
}

KeyReleaseMsg decode_key(util::ByteReader& r) {
  KeyReleaseMsg m;
  m.tx = r.u64();
  m.piece = r.u32();
  m.key = r.blob();
  return m;
}

PayeeReassignMsg decode_reassign(util::ByteReader& r) {
  PayeeReassignMsg m;
  m.tx = r.u64();
  m.new_payee = r.u32();
  return m;
}

AnnounceMsg decode_announce(util::ByteReader& r) {
  AnnounceMsg m;
  m.peer = r.u32();
  m.swarm = r.str();
  m.port = r.u16();
  return m;
}

PeerListMsg decode_peer_list(util::ByteReader& r) {
  PeerListMsg m;
  const std::uint32_t n = r.u32();
  // Each endpoint is 6 bytes on the wire; bound the reserve by what the
  // buffer can actually hold so a forged count cannot balloon memory.
  if (r.remaining() / 6 < n)
    throw std::out_of_range("decode_message: peer list count exceeds frame");
  m.peers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    PeerEndpoint e;
    e.peer = r.u32();
    e.port = r.u16();
    m.peers.push_back(e);
  }
  return m;
}

}  // namespace

util::Bytes encode_message(const Message& m) {
  util::Bytes out;
  encode_message_to(m, out);
  return out;
}

void encode_message_to(const Message& m, util::Bytes& out) {
  util::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(message_type(m)));
  std::visit([&](const auto& body) { encode_body(w, body); }, m);
}

Message decode_message(const util::Bytes& wire) {
  return decode_message(wire.data(), wire.size());
}

Message decode_message(const std::uint8_t* wire, std::size_t len) {
  util::ByteReader r(wire, len);
  const auto type = static_cast<MsgType>(r.u8());
  Message out;
  switch (type) {
    case MsgType::kHandshake: out = decode_handshake(r); break;
    case MsgType::kBitfield: out = decode_bitfield(r); break;
    case MsgType::kHave: out = decode_have(r); break;
    case MsgType::kEncryptedPiece: out = decode_encrypted(r); break;
    case MsgType::kPlainPiece: out = decode_plain(r); break;
    case MsgType::kReceipt: out = decode_receipt(r); break;
    case MsgType::kKeyRelease: out = decode_key(r); break;
    case MsgType::kPayeeReassign: out = decode_reassign(r); break;
    case MsgType::kAnnounce: out = decode_announce(r); break;
    case MsgType::kPeerList: out = decode_peer_list(r); break;
    default:
      throw std::invalid_argument("decode_message: unknown message type");
  }
  if (!r.done())
    throw std::invalid_argument("decode_message: trailing bytes");
  return out;
}

crypto::Digest256 receipt_mac(const util::Bytes& mac_key, TxId reciprocated_tx,
                              PeerId payee, PeerId requestor,
                              PieceIndex piece) {
  util::ByteWriter w;
  w.str("tchain-receipt-v1");
  w.u64(reciprocated_tx);
  w.u32(payee);
  w.u32(requestor);
  w.u32(piece);
  return crypto::hmac_sha256(mac_key, w.data());
}

}  // namespace tc::net
