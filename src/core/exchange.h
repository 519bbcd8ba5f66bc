// The almost-fair exchange protocol itself, at byte level (Figure 1).
//
// Three session objects mirror the three roles of one transaction:
//   DonorSession     — encrypts the piece under a fresh key, emits the
//                      EncryptedPieceMsg, verifies the payee's receipt,
//                      releases the key;
//   RequestorSession — buffers the ciphertext, decrypts when the key
//                      arrives, verifies the piece hash;
//   PayeeSession     — observes the reciprocation upload and emits the
//                      HMAC-authenticated receipt for the original donor.
//
// The event-driven simulator models these exchanges at metadata level; the
// live runtime (src/rt) runs DonorSession byte-for-byte, and the tests run
// all three.
#pragma once

#include <optional>

#include "src/crypto/cipher.h"
#include "src/crypto/sha256.h"
#include "src/net/message.h"
#include "src/util/bytes.h"

namespace tc::core {

using net::PeerId;
using net::PieceIndex;
using net::TxId;

// Pairwise MAC key for receipt authentication. A deployment would agree on
// this during the handshake (e.g. Diffie-Hellman); for tests and the demo
// we derive it deterministically from the two identities.
util::Bytes derive_mac_key(PeerId a, PeerId b);

class DonorSession {
 public:
  DonorSession(TxId tx, std::uint64_t chain, PeerId donor, PeerId requestor,
               PeerId payee, PieceIndex piece, PeerId prev_donor,
               PieceIndex prev_piece, const util::Bytes& plaintext,
               crypto::KeySource& keys);

  // The message to upload to the requestor.
  const net::EncryptedPieceMsg& offer() const { return offer_; }

  // Validates a receipt claimed to come from the designated payee.
  // On success the donor is willing to release the key.
  bool accept_receipt(const net::ReceiptMsg& receipt);
  bool receipted() const { return receipted_; }

  // §II-B4: the payee left or stopped needing pieces; future receipts must
  // come from (and be MAC'd by) the replacement instead.
  void reassign_payee(PeerId new_payee) { offer_.payee = new_payee; }

  TxId tx() const { return offer_.tx; }
  PeerId payee() const { return offer_.payee; }
  PieceIndex piece() const { return offer_.piece; }

  // Precondition: receipted(). The key-release message for the requestor.
  net::KeyReleaseMsg key_release() const;

  // §II-B4: donor leaving the swarm hands the key to the payee, who will
  // forward it upon reciprocation.
  net::KeyReleaseMsg escrow_for_payee() const;

 private:
  net::EncryptedPieceMsg offer_;
  crypto::SymmetricKey key_;
  bool receipted_ = false;
};

class RequestorSession {
 public:
  explicit RequestorSession(net::EncryptedPieceMsg msg);

  TxId tx() const { return msg_.tx; }
  PeerId donor() const { return msg_.donor; }
  PeerId payee() const { return msg_.payee; }
  PieceIndex piece() const { return msg_.piece; }
  const util::Bytes& ciphertext() const { return msg_.ciphertext; }

  // Attempts to decrypt with the released key. Returns the plaintext, and
  // verifies it against `expected_hash` when provided (the .torrent piece
  // hash); nullopt on tx mismatch or hash mismatch.
  std::optional<util::Bytes> complete(
      const net::KeyReleaseMsg& release,
      const std::optional<crypto::Digest256>& expected_hash = std::nullopt);

  bool completed() const { return completed_; }

 private:
  net::EncryptedPieceMsg msg_;
  bool completed_ = false;
};

class PayeeSession {
 public:
  // The payee saw `reciprocation` arrive (the requestor's upload to it) in
  // payment for transaction `original_tx` by `original_donor`; emit the
  // authenticated receipt for that donor.
  static net::ReceiptMsg make_receipt(const net::EncryptedPieceMsg& reciprocation,
                                      PeerId original_donor, TxId original_tx);
};

}  // namespace tc::core
