// Byte-level almost-fair exchange: the full Figure 1 triangle executed with
// real encryption, receipts and key releases.
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
};

TEST_F(ExchangeTest, FullTriangleCompletes) {
  // A (donor, id 1) uploads encrypted p1 to B (id 2), payee C (id 3).
  const auto p1 = piece(0xa1);
  DonorSession donor(/*tx=*/100, /*chain=*/1, 1, 2, 3, /*piece=*/10,
                     net::kNoPeer, net::kNoPiece, p1, keys);

  // Ciphertext is not the plaintext ("almost complete resource").
  EXPECT_EQ(donor.offer().ciphertext.size(), p1.size());
  EXPECT_NE(donor.offer().ciphertext, p1);

  RequestorSession requestor(donor.offer());
  EXPECT_EQ(requestor.payee(), 3u);

  // B reciprocates: uploads encrypted p2 to C (tx 101).
  const auto p2 = piece(0xb2);
  DonorSession b_as_donor(/*tx=*/101, 1, 2, 3, /*payee=*/4, /*piece=*/11,
                          /*prev_donor=*/1, /*prev_piece=*/10, p2, keys);

  // C observes the reciprocation and issues the receipt for A.
  const auto receipt =
      PayeeSession::make_receipt(b_as_donor.offer(), /*original_donor=*/1,
                                 /*original_tx=*/100);
  EXPECT_TRUE(donor.accept_receipt(receipt));
  ASSERT_TRUE(donor.receipted());

  // A releases the key; B decrypts and verifies the piece hash.
  const auto expected = crypto::sha256(p1);
  const auto plain = requestor.complete(donor.key_release(), expected);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, p1);
  EXPECT_TRUE(requestor.completed());
}

TEST_F(ExchangeTest, ForgedReceiptRejected) {
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, net::kNoPiece,
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
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, net::kNoPiece,
                     piece(1), keys);
  DonorSession recip(101, 1, 2, 3, 4, 11, 1, 10, piece(2), keys);
  const auto receipt = PayeeSession::make_receipt(recip.offer(), 1, /*tx=*/999);
  EXPECT_FALSE(donor.accept_receipt(receipt));
}

TEST_F(ExchangeTest, ReceiptFromWrongPayeeRejected) {
  DonorSession donor(100, 1, 1, 2, /*payee=*/3, 10, net::kNoPeer, net::kNoPiece,
                     piece(1), keys);
  // Receipt arrives claiming payee 5 (not the designated 3).
  net::EncryptedPieceMsg fake_recip;
  fake_recip.tx = 101;
  fake_recip.donor = 2;
  fake_recip.requestor = 5;
  fake_recip.piece = 11;
  const auto receipt = PayeeSession::make_receipt(fake_recip, 1, 100);
  EXPECT_FALSE(donor.accept_receipt(receipt));
}

TEST_F(ExchangeTest, WrongKeyFailsHashCheck) {
  const auto p1 = piece(0x77);
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, net::kNoPiece, p1,
                     keys);
  RequestorSession requestor(donor.offer());
  // Attacker hands over some other key.
  net::KeyReleaseMsg bogus;
  bogus.tx = 100;
  bogus.piece = 10;
  bogus.key = keys.next().serialize();
  const auto out = requestor.complete(bogus, crypto::sha256(p1));
  EXPECT_FALSE(out.has_value());
  EXPECT_FALSE(requestor.completed());
}

TEST_F(ExchangeTest, KeyReleaseForWrongTxIgnored) {
  DonorSession d1(100, 1, 1, 2, 3, 10, net::kNoPeer, net::kNoPiece, piece(1),
                  keys);
  DonorSession d2(200, 2, 1, 2, 3, 20, net::kNoPeer, net::kNoPiece, piece(2),
                  keys);
  RequestorSession requestor(d1.offer());
  EXPECT_FALSE(requestor.complete(d2.key_release()).has_value());
}

TEST_F(ExchangeTest, CheatingGainsNothing) {
  // §III-A2: a requestor that refuses to reciprocate holds only an
  // undecryptable blob — decrypting with a guessed key fails.
  const auto p1 = piece(0x3c);
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, net::kNoPiece, p1,
                     keys);
  RequestorSession requestor(donor.offer());
  crypto::KeySource guesser(987654);
  for (int i = 0; i < 10; ++i) {
    net::KeyReleaseMsg guess;
    guess.tx = 100;
    guess.piece = 10;
    guess.key = guesser.next().serialize();
    EXPECT_FALSE(requestor.complete(guess, crypto::sha256(p1)));
  }
}

TEST_F(ExchangeTest, EscrowedKeyDecryptsViaPayeePath) {
  // §II-B4: donor departs, payee forwards the escrowed key.
  const auto p1 = piece(0x5e);
  DonorSession donor(100, 1, 1, 2, 3, 10, net::kNoPeer, net::kNoPiece, p1,
                     keys);
  RequestorSession requestor(donor.offer());
  const auto escrow = donor.escrow_for_payee();
  const auto plain = requestor.complete(escrow, crypto::sha256(p1));
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*plain, p1);
}

}  // namespace
}  // namespace tc::core
