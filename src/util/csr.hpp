/// \file csr.hpp
/// Flat adjacency lists (compressed sparse rows).
///
/// The netlist graphs — a net's reader cells, its driver cells, the scan
/// successors of a net — are many short lists. Keeping them as one
/// std::vector per net costs an allocation per non-empty list every time a
/// design is levelized or linted; a Csr holds all of them in two arrays
/// built in two passes over the edges.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace casbus {

/// Row r's entries are values[offsets[r] .. offsets[r + 1]), in the order
/// the edges were emitted.
template <typename T>
class Csr {
 public:
  Csr() = default;

  /// Builds \p rows lists from the edges \p each_edge emits: it is called
  /// twice with a callback `emit(row, value)` and must emit the same
  /// edges, in the same order, both times (a counting pass, then a
  /// filling pass).
  template <typename EachEdge>
  static Csr build(std::size_t rows, EachEdge&& each_edge) {
    Csr g;
    g.offsets_.assign(rows + 1, 0);
    each_edge([&](std::size_t row, const T&) { ++g.offsets_[row + 1]; });
    for (std::size_t r = 0; r < rows; ++r) g.offsets_[r + 1] += g.offsets_[r];
    g.values_.resize(g.offsets_[rows]);
    // Fill with offsets_[r] as row r's cursor; afterwards it holds the end
    // of row r, i.e. the start of row r + 1, so shift the array back.
    each_edge([&](std::size_t row, const T& value) {
      g.values_[g.offsets_[row]++] = value;
    });
    for (std::size_t r = rows; r > 0; --r) g.offsets_[r] = g.offsets_[r - 1];
    g.offsets_[0] = 0;
    return g;
  }

  /// Entries of row \p r.
  [[nodiscard]] std::span<const T> operator[](std::size_t r) const {
    return {values_.data() + offsets_[r], values_.data() + offsets_[r + 1]};
  }

  [[nodiscard]] std::size_t rows() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<T> values_;
};

}  // namespace casbus
