// Byte-buffer codecs: big-endian primitive encoding used by the wire
// protocol (src/net/message.*) and the TCP transport. Deliberately small
// and exception-checked so malformed frames cannot read out of bounds.
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tc::util {

using Bytes = std::vector<std::uint8_t>;

class ByteWriter {
 public:
  ByteWriter() = default;
  // Appends to `out` instead of an own buffer; `out` must outlive the
  // writer.
  explicit ByteWriter(Bytes& out) : buf_(&out) {}
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  // Length-prefixed (u32) blob / string.
  void blob(const Bytes& b);
  void str(std::string_view s);
  // Raw bytes, no length prefix.
  void raw(const std::uint8_t* data, std::size_t len);

  const Bytes& data() const { return *buf_; }
  std::size_t size() const { return buf_->size(); }

 private:
  Bytes own_;
  Bytes* buf_ = &own_;
};

// Throws std::out_of_range on truncated input.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf.data()), len_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t len) : buf_(data), len_(len) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  Bytes blob();
  std::string str();

  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

 private:
  void need(std::size_t n) const;
  const std::uint8_t* buf_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

// Lowercase hex encoding (debugging).
std::string to_hex(const Bytes& b);
std::string to_hex(const std::uint8_t* data, std::size_t len);

}  // namespace tc::util
