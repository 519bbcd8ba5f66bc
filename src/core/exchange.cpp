#include "src/core/exchange.h"

#include <algorithm>
#include <utility>

#include "src/crypto/hmac.h"

namespace tc::core {

util::Bytes derive_mac_key(PeerId a, PeerId b) {
  // Order-independent so both ends derive the same key.
  if (a > b) std::swap(a, b);
  util::ByteWriter w;
  w.str("tchain-mac-key-v1");
  w.u32(a);
  w.u32(b);
  const auto d = crypto::sha256(w.data());
  return util::Bytes(d.begin(), d.end());
}

DonorSession::DonorSession(TxId tx, std::uint64_t chain, PeerId donor,
                           PeerId requestor, PeerId payee, PieceIndex piece,
                           PeerId prev_donor, TxId prev_tx,
                           const util::Bytes& plaintext,
                           crypto::KeySource& keys)
    : key_(keys.next()) {
  offer_.tx = tx;
  offer_.chain = chain;
  offer_.donor = donor;
  offer_.requestor = requestor;
  offer_.payee = payee;
  offer_.piece = piece;
  offer_.prev_donor = prev_donor;
  offer_.prev_tx = prev_tx;
  offer_.ciphertext = crypto::piece_xor(key_, plaintext);
}

net::EncryptedPieceMsg DonorSession::take_offer() {
  util::Bytes ciphertext = std::move(offer_.ciphertext);
  offer_.ciphertext = {};
  net::EncryptedPieceMsg m = offer_;
  m.ciphertext = std::move(ciphertext);
  return m;
}

void DonorSession::reassign_payee(PeerId new_payee) {
  past_payees_.push_back(offer_.payee);
  offer_.payee = new_payee;
}

bool DonorSession::accept_receipt(const net::ReceiptMsg& receipt) {
  if (receipted_) return true;
  if (receipt.reciprocated_tx != offer_.tx) return false;
  if (receipt.payee != offer_.payee &&
      std::find(past_payees_.begin(), past_payees_.end(), receipt.payee) ==
          past_payees_.end()) {
    return false;
  }
  if (receipt.requestor != offer_.requestor) return false;
  const auto mac_key = derive_mac_key(offer_.donor, receipt.payee);
  const auto expect = net::receipt_mac(mac_key, receipt.reciprocated_tx,
                                       receipt.payee, receipt.requestor,
                                       receipt.piece);
  if (!crypto::digest_equal(expect, receipt.mac)) return false;
  receipted_ = true;
  return true;
}

net::KeyReleaseMsg DonorSession::key_release() const {
  net::KeyReleaseMsg m;
  m.tx = offer_.tx;
  m.piece = offer_.piece;
  m.key = key_.serialize();
  return m;
}

}  // namespace tc::core
