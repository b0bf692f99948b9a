// Little-endian binary encode/decode primitives.
//
// Shared by the wire codec (src/comm/wire.*) and the solver checkpoint
// format (core snapshot/restore): both need fixed-layout, explicitly
// little-endian integers and bit-exact doubles, independent of host
// endianness and of any printf round-trip. Doubles travel as their
// IEEE-754 bit pattern (bit_cast to u64), so denormals, ±inf and NaN
// payloads survive encode/decode unchanged.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace nadmm::binio {

/// Append-only little-endian encoder over a growable byte buffer.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }

  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }

  void put_i64(std::int64_t v) {
    put_u64(static_cast<std::uint64_t>(v));
  }

  /// IEEE-754 bit pattern, little-endian: exact for every double value.
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

  /// Bulk append of raw doubles (no length prefix). On little-endian
  /// hosts the array's bytes already ARE the wire layout, so this is a
  /// single insert instead of 8 push_backs per value — the difference
  /// between codec throughput and memcpy throughput on large payloads.
  void put_f64_array(std::span<const double> values) {
    if constexpr (std::endian::native == std::endian::little) {
      const auto* raw = reinterpret_cast<const std::uint8_t*>(values.data());
      bytes_.insert(bytes_.end(), raw, raw + values.size() * sizeof(double));
    } else {
      for (const double v : values) put_f64(v);
    }
  }

  void put_f64_span(std::span<const double> values) {
    put_u64(values.size());
    put_f64_array(values);
  }

  /// Pre-size the buffer when the final byte count is known up front.
  void reserve(std::size_t n) { bytes_.reserve(n); }

  void put_bytes(std::span<const std::uint8_t> raw) {
    bytes_.insert(bytes_.end(), raw.begin(), raw.end());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
/// Every read names `context` in its error so truncation failures say
/// which structure was being decoded.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, std::string context)
      : bytes_(bytes), context_(std::move(context)) {}

  std::uint8_t get_u8() {
    need(1, "u8");
    return bytes_[pos_++];
  }

  std::uint16_t get_u16() { return get_le<std::uint16_t>("u16"); }
  std::uint32_t get_u32() { return get_le<std::uint32_t>("u32"); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>("u64"); }

  std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }

  double get_f64() { return std::bit_cast<double>(get_u64()); }

  /// Bulk read of `n` doubles, replacing `out`'s contents. Mirrors
  /// ByteWriter::put_f64_array: one memcpy on little-endian hosts.
  void get_f64_array(std::vector<double>& out, std::uint64_t n) {
    // Bound by the remaining bytes before allocating, so a corrupt
    // length cannot drive a multi-GB reserve. Divide rather than multiply:
    // n * 8 wraps for n >= 2^61 and would slip past the check.
    if (n > remaining() / sizeof(double)) {
      throw RuntimeError(context_ + ": truncated — f64 vector of length " +
                         std::to_string(n) + " but only " +
                         std::to_string(remaining()) + " bytes remain");
    }
    out.resize(static_cast<std::size_t>(n));
    if (n == 0) return;  // memcpy from a null out.data() is undefined
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), bytes_.data() + pos_,
                  static_cast<std::size_t>(n) * sizeof(double));
      pos_ += static_cast<std::size_t>(n) * sizeof(double);
    } else {
      for (std::uint64_t i = 0; i < n; ++i) out[i] = get_f64();
    }
  }

  std::vector<double> get_f64_vector() {
    const std::uint64_t n = get_u64();
    std::vector<double> out;
    get_f64_array(out, n);
    return out;
  }

  /// Borrow the next `n` raw bytes (e.g. a length-prefixed record) and
  /// advance past them. The span aliases the reader's buffer.
  std::span<const std::uint8_t> get_raw(std::size_t n) {
    need(n, "raw bytes");
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  /// Reject trailing garbage after a complete decode.
  void expect_end() const {
    if (pos_ != bytes_.size()) {
      throw RuntimeError(context_ + ": " + std::to_string(remaining()) +
                         " trailing bytes after decode");
    }
  }

 private:
  void need(std::size_t n, const char* what) {
    if (remaining() < n) {
      throw RuntimeError(context_ + ": truncated — need " + std::to_string(n) +
                         " bytes for " + what + " at offset " +
                         std::to_string(pos_) + ", have " +
                         std::to_string(remaining()));
    }
  }

  template <typename T>
  T get_le(const char* what) {
    need(sizeof(T), what);
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(bytes_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  std::string context_;
};

/// FNV-1a 64-bit over a byte range (checksums; same constants as the
/// sweep fingerprint so there is one hash idiom in the repo).
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes,
                           std::uint64_t seed = 0xcbf29ce484222325ULL) {
  std::uint64_t h = seed;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Word-wise FNV-1a: folds eight little-endian bytes per multiply
/// instead of one, cutting the hash's serial dependency chain — and
/// with it large-frame checksum time — by 8x. A short tail is
/// zero-padded into one final word. The word assembly is explicitly
/// little-endian, so the value is host-independent, but it is NOT the
/// byte-wise fnv1a of the same input: a format picks one and keeps it.
inline std::uint64_t fnv1a_words(std::span<const std::uint8_t> bytes,
                                 std::uint64_t seed = 0xcbf29ce484222325ULL) {
  const auto word_at = [](const std::uint8_t* p, std::size_t n) {
    std::uint64_t w = 0;
    for (std::size_t i = 0; i < n; ++i) w |= std::uint64_t(p[i]) << (8 * i);
    return w;
  };
  std::uint64_t h = seed;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    h ^= word_at(bytes.data() + i, 8);
    h *= 0x100000001b3ULL;
  }
  if (i < bytes.size()) {
    h ^= word_at(bytes.data() + i, bytes.size() - i);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace nadmm::binio
