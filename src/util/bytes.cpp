#include "src/util/bytes.h"

#include <stdexcept>

namespace tc::util {

void ByteWriter::u8(std::uint8_t v) { buf_->push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v >> 8));
  u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::blob(const Bytes& b) {
  u32(static_cast<std::uint32_t>(b.size()));
  raw(b.data(), b.size());
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

void ByteWriter::raw(const std::uint8_t* data, std::size_t len) {
  buf_->insert(buf_->end(), data, data + len);
}

void ByteReader::need(std::size_t n) const {
  if (len_ - pos_ < n) throw std::out_of_range("ByteReader: truncated input");
}

std::uint8_t ByteReader::u8() {
  need(1);
  return buf_[pos_++];
}

std::uint16_t ByteReader::u16() {
  const auto hi = u8();
  const auto lo = u8();
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t hi = u16();
  const std::uint32_t lo = u16();
  return (hi << 16) | lo;
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t hi = u32();
  const std::uint64_t lo = u32();
  return (hi << 32) | lo;
}

Bytes ByteReader::blob() {
  const std::uint32_t n = u32();
  need(n);
  Bytes out(buf_ + pos_, buf_ + pos_ + n);
  pos_ += n;
  return out;
}

std::string ByteReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string out(reinterpret_cast<const char*>(buf_ + pos_), n);
  pos_ += n;
  return out;
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}  // namespace

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xf]);
  }
  return out;
}

std::string to_hex(const Bytes& b) { return to_hex(b.data(), b.size()); }

}  // namespace tc::util
