// One-bit-per-pixel binary raster: the working format of binary morphology.
//
// Each row is `words_per_row()` 64-bit words; pixel x of a row is bit
// (x % 64) of word (x / 64), least-significant bit leftmost. The padding
// bits past `width()` in a row's last word are always zero, so they read as
// background to any pass that shifts them in. BinaryImage stays the byte
// interchange format between pipeline stages; morphology packs into this
// type once per call and unpacks once (see morphology.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace hdc::imaging {

class BitRaster {
 public:
  static constexpr int kWordBits = 64;

  /// Reshapes to width x height with every bit clear, reusing the existing
  /// heap block whenever its capacity suffices (the scratch contract of the
  /// Image::reset it mirrors).
  void reset(int width, int height) {
    if (width <= 0 || height <= 0) {
      throw std::invalid_argument("BitRaster::reset: dimensions must be positive");
    }
    width_ = width;
    height_ = height;
    words_per_row_ = (static_cast<std::size_t>(width) + kWordBits - 1) / kWordBits;
    words_.assign(words_per_row_ * static_cast<std::size_t>(height), 0);
  }

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }
  [[nodiscard]] std::size_t words_per_row() const noexcept { return words_per_row_; }

  [[nodiscard]] std::uint64_t* row(int y) noexcept {
    return words_.data() + static_cast<std::size_t>(y) * words_per_row_;
  }
  [[nodiscard]] const std::uint64_t* row(int y) const noexcept {
    return words_.data() + static_cast<std::size_t>(y) * words_per_row_;
  }

  /// The in-raster bits of a row's last word; the rest are padding.
  [[nodiscard]] std::uint64_t last_word_mask() const noexcept {
    const int tail = width_ % kWordBits;
    return tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  }

 private:
  int width_{0};
  int height_{0};
  std::size_t words_per_row_{0};
  std::vector<std::uint64_t> words_;
};

}  // namespace hdc::imaging
