/// \file bitvector.hpp
/// A dynamically sized bit vector tuned for the serial-shift patterns that
/// dominate test-access-mechanism traffic (scan chains, instruction
/// registers, signature registers).

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/error.hpp"

// The library requires C++20 (std::popcount, <bit>, defaulted operator==
// in tpg/fault.hpp and soc/tester.hpp). Under C++17 six files fail with a
// cascade of unrelated-looking errors; fail here with one clear message
// instead. MSVC keeps __cplusplus at 199711L unless /Zc:__cplusplus is
// set, so check _MSVC_LANG there.
#if defined(_MSVC_LANG)
#define CASBUS_CPLUSPLUS _MSVC_LANG
#else
#define CASBUS_CPLUSPLUS __cplusplus
#endif
static_assert(CASBUS_CPLUSPLUS >= 202002L,
              "casbus requires C++20 — compile with -std=c++20 "
              "(CMake: target_compile_features(... cxx_std_20))");
#undef CASBUS_CPLUSPLUS

namespace casbus {

/// Dynamically sized vector of bits with LSB-first indexing.
///
/// Index 0 is the bit that enters a serial shift register first; this matches
/// the convention used throughout the CAS-BUS configuration protocol, where
/// instruction words are shifted LSB-first onto test-bus wire 0.
class BitVector {
 public:
  /// Constructs an empty bit vector.
  BitVector() = default;

  /// Constructs \p size bits, all initialized to \p value.
  explicit BitVector(std::size_t size, bool value = false)
      : size_(size), words_((size + 63) / 64, value ? ~0ULL : 0ULL) {
    trim();
  }

  /// Builds a bit vector from a '0'/'1' string; s[0] becomes bit 0.
  /// Characters other than '0' and '1' (e.g. separators '_') are skipped.
  static BitVector from_string(std::string_view s);

  /// Builds a bit vector holding the \p bits low-order bits of \p value,
  /// LSB first.
  static BitVector from_uint(std::uint64_t value, std::size_t bits);

  /// Number of bits held.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when the vector holds no bits.
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Reads bit \p i (0-based, LSB first).
  [[nodiscard]] bool get(std::size_t i) const {
    CASBUS_REQUIRE(i < size_, "BitVector::get index out of range");
    return (words_[i / 64] >> (i % 64)) & 1ULL;
  }

  /// Writes bit \p i.
  void set(std::size_t i, bool v) {
    CASBUS_REQUIRE(i < size_, "BitVector::set index out of range");
    const std::uint64_t mask = 1ULL << (i % 64);
    if (v)
      words_[i / 64] |= mask;
    else
      words_[i / 64] &= ~mask;
  }

  /// Appends one bit at the high end.
  void push_back(bool v) {
    if (size_ % 64 == 0) words_.push_back(0);
    ++size_;
    set(size_ - 1, v);
  }

  /// Removes all bits.
  void clear() noexcept {
    size_ = 0;
    words_.clear();
  }

  /// Sets every bit to \p v.
  void fill(bool v) {
    for (auto& w : words_) w = v ? ~0ULL : 0ULL;
    trim();
  }

  /// Serial shift: inserts \p in at bit 0, moves every bit one position up,
  /// and returns the bit shifted out of the high end.
  ///
  /// This is the "shift towards MSB" direction used by scan chains whose
  /// scan-in feeds stage 0.
  bool shift_in(bool in);

  /// Interprets the low-order min(size, 64) bits as an unsigned integer.
  [[nodiscard]] std::uint64_t to_uint() const;

  /// Renders as a '0'/'1' string, bit 0 first.
  [[nodiscard]] std::string to_string() const;

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const noexcept;

  /// The bits as 64-bit words, bit i in word i / 64 at position i % 64;
  /// the unused high bits of the last word are zero, so two vectors of one
  /// size are equal exactly when their words are.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }

  /// Lexicographic equality over (size, bits).
  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitVector& a, const BitVector& b) {
    return !(a == b);
  }

  /// Bitwise XOR of equally sized vectors.
  BitVector& operator^=(const BitVector& rhs);

 private:
  /// Clears the unused high bits of the top word so equality is well defined.
  void trim() noexcept {
    if (size_ % 64 != 0 && !words_.empty())
      words_.back() &= (1ULL << (size_ % 64)) - 1;
    if (size_ == 0) words_.clear();
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

std::ostream& operator<<(std::ostream& os, const BitVector& bv);

}  // namespace casbus
