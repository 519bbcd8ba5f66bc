#include "src/core/transaction.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace tc::core {
namespace {

TEST(TransactionTable, CreateAssignsUniqueIds) {
  TransactionTable t;
  const auto& a = t.create(1, 10, 20, 30, 5, 0, 0.0);
  const auto& b = t.create(1, 20, 30, 40, 6, a.id, 1.0);
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(b.prev, a.id);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.created(), 2u);
}

TEST(TransactionTable, GetAndErase) {
  TransactionTable t;
  const TxId id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  ASSERT_NE(t.get(id), nullptr);
  EXPECT_EQ(t.get(id)->donor, 10u);
  t.erase(id);
  EXPECT_EQ(t.get(id), nullptr);
  EXPECT_EQ(t.size(), 0u);
  t.erase(id);  // idempotent
}

TEST(TransactionTable, InvolvingIndexesAllRoles) {
  TransactionTable t;
  const TxId id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  for (PeerId p : {10u, 20u, 30u}) {
    const auto v = t.involving(p);
    ASSERT_EQ(v.size(), 1u) << p;
    EXPECT_EQ(v[0], id);
  }
  EXPECT_TRUE(t.involving(99).empty());
  t.erase(id);
  for (PeerId p : {10u, 20u, 30u}) EXPECT_TRUE(t.involving(p).empty());
}

TEST(TransactionTable, DirectReciprocityIndexesDonorOnce) {
  TransactionTable t;
  // payee == donor (direct reciprocity): donor must appear once.
  const TxId id = t.create(1, 10, 20, 10, 5, 0, 0.0).id;
  EXPECT_EQ(t.involving(10).size(), 1u);
  t.erase(id);
  EXPECT_TRUE(t.involving(10).empty());
}

TEST(TransactionTable, TerminalTxHasNoPayee) {
  TransactionTable t;
  const auto& tx = t.create(1, 10, 20, net::kNoPeer, 5, 0, 0.0);
  EXPECT_FALSE(tx.encrypted());
  EXPECT_TRUE(t.involving(20).size() == 1);
}

TEST(TransactionTable, SetPayeeReindexes) {
  TransactionTable t;
  const TxId id = t.create(1, 10, 20, 30, 5, 0, 0.0).id;
  t.set_payee(id, 40);
  EXPECT_TRUE(t.involving(30).empty());
  ASSERT_EQ(t.involving(40).size(), 1u);
  EXPECT_EQ(t.get(id)->payee, 40u);
  // Reassigning to the donor itself must not double-index.
  t.set_payee(id, 10);
  EXPECT_EQ(t.involving(10).size(), 1u);
}

TEST(TransactionTable, InvolvingWithManyTransactions) {
  TransactionTable t;
  std::vector<TxId> ids;
  for (int i = 0; i < 10; ++i)
    ids.push_back(t.create(1, 10, static_cast<PeerId>(20 + i), 30, 5, 0, 0.0).id);
  EXPECT_EQ(t.involving(10).size(), 10u);
  EXPECT_EQ(t.involving(30).size(), 10u);
  EXPECT_EQ(t.involving(25).size(), 1u);
  t.erase(ids[3]);
  EXPECT_EQ(t.involving(10).size(), 9u);
}

}  // namespace
}  // namespace tc::core
