// Byte-level almost-fair exchange: the full Figure 1 triangle executed with
// real encryption, receipts and key releases. DonorSession is the donor;
// the payee's receipt and the requestor's decryption are written out with
// the same primitives core::Node uses (net::receipt_mac, crypto::piece_xor).
#include "src/core/exchange.h"

#include <gtest/gtest.h>

namespace tc::core {
namespace {

class ExchangeTest : public ::testing::Test {
 protected:
  crypto::KeySource keys{42};

  util::Bytes piece(std::uint8_t fill, std::size_t len = 4096) {
    util::Bytes b(len, fill);
    return b;
  }

  // The payee of `original_tx` (by `original_donor`) saw `reciprocation`
  // arrive: the receipt it sends the donor.
  static net::ReceiptMsg receipt_for(
      const net::EncryptedPieceMsg& reciprocation, PeerId original_donor,
      TxId original_tx) {
    net::ReceiptMsg r;
    r.reciprocated_tx = original_tx;
    r.payee = reciprocation.requestor;
    r.requestor = reciprocation.donor;
    r.piece = reciprocation.piece;
    r.mac = net::receipt_mac(derive_mac_key(original_donor, r.payee),
                             original_tx, r.payee, r.requestor, r.piece);
    return r;
  }

  static util::Bytes decrypt(const net::KeyReleaseMsg& release,
                             const util::Bytes& ciphertext) {
    return crypto::piece_xor(crypto::SymmetricKey::deserialize(release.key),
                             ciphertext);
  }
};

TEST_F(ExchangeTest, FullTriangleCompletes) {
  // A (donor, id 1) uploads encrypted p1 to B (id 2), payee C (id 3).
  const auto p1 = piece(0xa1);
  DonorSession donor(/*tx=*/100, /*chain=*/1, 1, 2, 3, /*piece=*/10,
                     net::kNoPeer, 0, p1, keys);

  // Ciphertext is not the plaintext ("almost complete resource").
  EXPECT_EQ(donor.offer().ciphertext.size(), p1.size());
  EXPECT_NE(donor.offer().ciphertext, p1);

  EXPECT_EQ(donor.offer().payee, 3u);

  // B reciprocates: uploads encrypted p2 to C (tx 101).
  const auto p2 = piece(0xb2);
  DonorSession b_as_donor(/*tx=*/101, 1, 2, 3, /*payee=*/4, /*piece=*/11,
                          /*prev_donor=*/1, /*prev_tx=*/100, p2, keys);

  // C observes the reciprocation and issues the receipt for A.
  const auto receipt = receipt_for(b_as_donor.offer(), /*original_donor=*/1,
                                   /*original_tx=*/100);
  EXPECT_TRUE(donor.accept_receipt(receipt));
  ASSERT_TRUE(donor.receipted());

  // A releases the key; B decrypts and verifies the piece hash.
  const auto release = donor.key_release();
  EXPECT_EQ(release.tx, 100u);
  EXPECT_EQ(release.piece, 10u);
  const auto plain = decrypt(release, donor.offer().ciphertext);
  EXPECT_EQ(plain, p1);
  EXPECT_EQ(crypto::sha256(plain), crypto::sha256(p1));
}

TEST_F(ExchangeTest, TakeOfferLeavesOnlySettlementState) {
  const auto p1 = piece(0x4d);
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, 0, p1,
                     keys);
  const net::EncryptedPieceMsg sent = donor.take_offer();
  EXPECT_EQ(sent.ciphertext.size(), p1.size());
  // The session no longer holds the ciphertext, only the metadata.
  EXPECT_TRUE(donor.offer().ciphertext.empty());
  EXPECT_EQ(donor.offer().tx, 100u);
  EXPECT_EQ(donor.offer().requestor, 2u);
  EXPECT_EQ(donor.offer().payee, 3u);

  DonorSession recip(101, 1, 2, 3, 4, 11, 1, 100, piece(2), keys);
  EXPECT_TRUE(donor.accept_receipt(receipt_for(recip.offer(), 1, 100)));
  EXPECT_EQ(decrypt(donor.key_release(), sent.ciphertext), p1);
}

TEST_F(ExchangeTest, ForgedReceiptRejected) {
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, 0,
                     piece(1), keys);
  net::ReceiptMsg forged;
  forged.reciprocated_tx = 100;
  forged.payee = 3;
  forged.requestor = 2;
  forged.piece = 11;
  // MAC computed with the wrong pairwise key (attacker doesn't know it).
  const auto wrong_key = derive_mac_key(7, 9);
  forged.mac = net::receipt_mac(wrong_key, 100, 3, 2, 11);
  EXPECT_FALSE(donor.accept_receipt(forged));
  EXPECT_FALSE(donor.receipted());
}

TEST_F(ExchangeTest, ReceiptForWrongTxRejected) {
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, 0,
                     piece(1), keys);
  DonorSession recip(101, 1, 2, 3, 4, 11, 1, 100, piece(2), keys);
  const auto receipt = receipt_for(recip.offer(), 1, /*tx=*/999);
  EXPECT_FALSE(donor.accept_receipt(receipt));
}

TEST_F(ExchangeTest, ReceiptFromWrongPayeeRejected) {
  DonorSession donor(100, 1, 1, 2, /*payee=*/3, 10, net::kNoPeer, 0,
                     piece(1), keys);
  // Receipt arrives claiming payee 5 (not the designated 3).
  net::EncryptedPieceMsg fake_recip;
  fake_recip.tx = 101;
  fake_recip.donor = 2;
  fake_recip.requestor = 5;
  fake_recip.piece = 11;
  const auto receipt = receipt_for(fake_recip, 1, 100);
  EXPECT_FALSE(donor.accept_receipt(receipt));
}

TEST_F(ExchangeTest, ReceiptNamingAnotherRequestorRejected) {
  // Peer 5 uploads to payee 3 naming A's tx 100 as the one it pays for, but
  // A's requestor is 2. The payee's receipt is well MAC'd and names the
  // right tx and payee; only the requestor match rejects it.
  DonorSession donor(100, 1, 1, /*requestor=*/2, /*payee=*/3, 10,
                     net::kNoPeer, 0, piece(1), keys);
  DonorSession stranger(501, 5, /*donor=*/5, /*requestor=*/3, 4, 11,
                        /*prev_donor=*/1, /*prev_tx=*/100, piece(2), keys);
  const auto receipt = receipt_for(stranger.offer(), 1, 100);
  EXPECT_FALSE(donor.accept_receipt(receipt));
  EXPECT_FALSE(donor.receipted());

  DonorSession recip(101, 1, 2, 3, 4, 11, 1, 100, piece(2), keys);
  EXPECT_TRUE(donor.accept_receipt(receipt_for(recip.offer(), 1, 100)));
}

TEST_F(ExchangeTest, ReceiptFromAnyDesignatedPayeeAccepted) {
  // §II-B4: payee 3 was replaced by 4, and the requestor's reciprocation
  // had already reached 3. Each designated payee's receipt settles the
  // transaction; an undesignated peer's does not, even correctly MAC'd.
  const auto from = [&](PeerId payee) {
    net::EncryptedPieceMsg recip;
    recip.tx = 101;
    recip.donor = 2;
    recip.requestor = payee;
    recip.piece = 11;
    return receipt_for(recip, 1, 100);
  };
  for (const PeerId payee : {PeerId{3}, PeerId{4}}) {
    DonorSession donor(100, 1, 1, 2, /*payee=*/3, 10, net::kNoPeer, 0,
                       piece(1), keys);
    donor.reassign_payee(4);
    EXPECT_EQ(donor.offer().payee, 4u);
    EXPECT_FALSE(donor.accept_receipt(from(5)));
    EXPECT_TRUE(donor.accept_receipt(from(payee))) << "payee " << payee;
  }
}

TEST_F(ExchangeTest, WrongKeyFailsHashCheck) {
  const auto p1 = piece(0x77);
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, 0, p1,
                     keys);
  // Attacker hands over some other key.
  net::KeyReleaseMsg bogus;
  bogus.tx = 100;
  bogus.piece = 10;
  bogus.key = keys.next().serialize();
  EXPECT_NE(crypto::sha256(decrypt(bogus, donor.offer().ciphertext)),
            crypto::sha256(p1));
}

TEST_F(ExchangeTest, KeyReleaseForWrongTxIgnored) {
  // Each release names its own transaction and piece, and another
  // transaction's key does not open this ciphertext.
  const auto p1 = piece(1);
  DonorSession d1(100, 1, 1, 2, 3, 10, net::kNoPeer, 0, p1, keys);
  DonorSession d2(200, 2, 1, 2, 3, 20, net::kNoPeer, 0, piece(2),
                  keys);
  const auto release = d2.key_release();
  EXPECT_EQ(release.tx, 200u);
  EXPECT_EQ(release.piece, 20u);
  EXPECT_NE(decrypt(release, d1.offer().ciphertext), p1);
}

TEST_F(ExchangeTest, CheatingGainsNothing) {
  // §III-A2: a requestor that refuses to reciprocate holds only an
  // undecryptable blob — decrypting with a guessed key fails.
  const auto p1 = piece(0x3c);
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, 0, p1,
                     keys);
  crypto::KeySource guesser(987654);
  for (int i = 0; i < 10; ++i) {
    net::KeyReleaseMsg guess;
    guess.tx = 100;
    guess.piece = 10;
    guess.key = guesser.next().serialize();
    EXPECT_NE(crypto::sha256(decrypt(guess, donor.offer().ciphertext)),
              crypto::sha256(p1));
  }
}

}  // namespace
}  // namespace tc::core
