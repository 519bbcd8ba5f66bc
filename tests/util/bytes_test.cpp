#include "src/util/bytes.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace tc::util {
namespace {

TEST(Bytes, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[3], 0x04);
}

TEST(Bytes, BlobAndStringRoundTrip) {
  ByteWriter w;
  w.blob({1, 2, 3});
  w.str("hello");
  w.str("");
  ByteReader r(w.data());
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  r.u8();
  EXPECT_EQ(r.remaining(), 1u);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(Bytes, TruncatedBlobThrows) {
  ByteWriter w;
  w.u32(100);  // claims 100 bytes that are not there
  ByteReader r(w.data());
  EXPECT_THROW(r.blob(), std::out_of_range);
}

TEST(Bytes, EmptyReaderIsDone) {
  Bytes empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.u8(), std::out_of_range);
}

TEST(Hex, RoundTrip) {
  const Bytes b{0x00, 0xff, 0x1a, 0x2b};
  EXPECT_EQ(to_hex(b), "00ff1a2b");
}

class BytesFuzzRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BytesFuzzRoundTrip, BlobOfEverySize) {
  Bytes data(GetParam());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  ByteWriter w;
  w.blob(data);
  ByteReader r(w.data());
  EXPECT_EQ(r.blob(), data);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesFuzzRoundTrip,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 63, 64, 65, 255,
                                           256, 1000, 65536));

}  // namespace
}  // namespace tc::util
