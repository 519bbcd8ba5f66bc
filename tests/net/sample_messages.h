// One populated message of every wire type, in tag order, for codec and
// framing tests that must cover the whole Message variant.
#pragma once

#include <vector>

#include "src/crypto/sha256.h"
#include "src/net/message.h"

namespace tc::net {

inline std::vector<Message> one_of_each_type() {
  EncryptedPieceMsg enc;
  enc.tx = 0x1122334455667788ull;
  enc.chain = 77;
  enc.donor = 1;
  enc.requestor = 2;
  enc.payee = 3;
  enc.piece = 99;
  enc.prev_donor = 4;
  enc.prev_tx = (std::uint64_t{4} << 32) | 88;
  enc.ciphertext = util::Bytes(1000, 0x5a);

  PlainPieceMsg plain;
  plain.tx = 9;
  plain.chain = 8;
  plain.donor = 7;
  plain.piece = 6;
  plain.prev_donor = 5;
  plain.prev_tx = 0xfffffffe00000007ull;
  plain.data = {1, 2, 3};

  ReceiptMsg receipt;
  receipt.reciprocated_tx = 5;
  receipt.payee = 3;
  receipt.requestor = 2;
  receipt.piece = 10;
  receipt.mac = crypto::sha256("x");

  return {
      Message{HandshakeMsg{42, "swarm-infohash-xyz"}},
      Message{BitfieldMsg{19, {0xff, 0x03, 0x01}}},
      Message{HaveMsg{1234}},
      Message{enc},
      Message{plain},
      Message{receipt},
      Message{KeyReleaseMsg{11, 12, util::Bytes(44, 0xab)}},
      Message{PayeeReassignMsg{5, 42}},
      Message{AnnounceMsg{6, "swarm-infohash-xyz", 40001}},
      Message{PeerListMsg{{{1, 40001}, {2, 40002}, {9, 65535}}}},
  };
}

}  // namespace tc::net
