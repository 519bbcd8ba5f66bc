// The almost-fair exchange protocol itself, at byte level (Figure 1).
//
// DonorSession is the donor's role in one transaction: it encrypts the
// piece under a fresh key, emits the EncryptedPieceMsg, verifies the
// payee's receipt and releases the key. The requestor and payee roles live
// in core::Node: its banked-buffer key cascade is the requestor, and the
// receipts it MACs (net::receipt_mac under derive_mac_key) are the payee. The
// event-driven simulator models these exchanges at metadata level.
#pragma once

#include <vector>

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
               TxId prev_tx, const util::Bytes& plaintext,
               crypto::KeySource& keys);

  // The offer sent to the requestor. Its ciphertext is empty once
  // take_offer() has moved it out.
  const net::EncryptedPieceMsg& offer() const { return offer_; }
  // The message to upload, ciphertext included; afterwards the session
  // keeps only what settlement needs (metadata and key).
  net::EncryptedPieceMsg take_offer();

  // Validates a receipt claimed to come from a payee this transaction has
  // designated, the current one or an earlier one, MAC'd under that
  // payee's key. On success the donor is willing to release the key.
  bool accept_receipt(const net::ReceiptMsg& receipt);
  bool receipted() const { return receipted_; }

  // §II-B4: the payee left or stopped needing pieces. The replacement
  // becomes the payee, and a receipt from the old one still settles the
  // transaction: the requestor's reciprocation may already be on its way.
  void reassign_payee(PeerId new_payee);

  // Precondition: receipted(). The key-release message for the requestor.
  net::KeyReleaseMsg key_release() const;

 private:
  net::EncryptedPieceMsg offer_;
  std::vector<PeerId> past_payees_;  // designated before offer_.payee
  crypto::SymmetricKey key_;
  bool receipted_ = false;
};

}  // namespace tc::core
