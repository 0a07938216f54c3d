#include "imaging/morphology.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace hdc::imaging {

namespace {

static_assert(std::endian::native == std::endian::little,
              "pack8/unpack_word map byte i of a loaded word to pixel i");

enum class MorphOp { kErode, kDilate };

constexpr int kWordBits = BitRaster::kWordBits;

/// Gathers the high bit of byte i into bit 56 + i. The partial products
/// (byte i's bit times 2^(7j)) all land on distinct bits, so nothing carries.
constexpr std::uint64_t kHighBits = 0x8080'8080'8080'8080ULL;
constexpr std::uint64_t kGatherMagic = 0x0002'0408'1020'4081ULL;

/// Byte k of kSpread[b] is kForeground when bit k of b is set.
constexpr std::array<std::uint64_t, 256> make_spread_table() {
  std::array<std::uint64_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    for (int k = 0; k < 8; ++k) {
      if ((b >> k) & 1U) table[b] |= std::uint64_t{kForeground} << (8 * k);
    }
  }
  return table;
}
constexpr std::array<std::uint64_t, 256> kSpread = make_spread_table();

/// Eight {0,255} pixels -> eight bits, pixel i -> bit i.
std::uint64_t pack8(const std::uint8_t* pixels) {
  std::uint64_t bytes = 0;
  std::memcpy(&bytes, pixels, sizeof bytes);
  return ((bytes & kHighBits) * kGatherMagic) >> 56;
}

/// Packs `src` into `bits`; the padding bits stay zero.
void pack_into(const BinaryImage& src, BitRaster& bits) {
  const int w = src.width();
  bits.reset(w, src.height());
  const std::uint8_t* in = src.data().data();
  for (int y = 0; y < src.height(); ++y, in += w) {
    std::uint64_t* out = bits.row(y);
    for (std::size_t i = 0; i < bits.words_per_row(); ++i) {
      const std::uint8_t* px = in + i * kWordBits;
      const int count = std::min(kWordBits, w - static_cast<int>(i) * kWordBits);
      std::uint64_t word = 0;
      if (count == kWordBits) {
        for (int k = 0; k < 8; ++k) word |= pack8(px + 8 * k) << (8 * k);
      } else {
        for (int k = 0; k < count; ++k) word |= std::uint64_t{px[k]} >> 7 << k;
      }
      out[i] = word;
    }
  }
}

/// The first `count` pixels of `word` as {0,255} bytes.
void unpack_word(std::uint64_t word, std::uint8_t* out, int count) {
  if (count == kWordBits) {
    for (int k = 0; k < 8; ++k) {
      std::memcpy(out + 8 * k, &kSpread[(word >> (8 * k)) & 0xFFU], 8);
    }
    return;
  }
  for (int k = 0; k < count; ++k) {
    out[k] = (word >> k) & 1U ? kForeground : kBackground;
  }
}

/// Horizontal pass of a (2r+1)-wide element, in place. Each of the `radius`
/// steps combines every pixel with its two neighbours (a word shifted by one
/// with the carry bit from the adjacent word); r steps of the 3-wide element
/// compose to the (2r+1)-wide one, so any radius, r >= 64 included, needs no
/// cross-word shift. Bits shifted in from outside the row are zero, i.e.
/// background. A dilation can set padding bits, so it re-masks them.
void horizontal_pass(BitRaster& bits, int radius, MorphOp op) {
  const std::size_t words = bits.words_per_row();
  const bool erode = op == MorphOp::kErode;
  for (int y = 0; y < bits.height(); ++y) {
    std::uint64_t* row = bits.row(y);
    for (int step = 0; step < radius; ++step) {
      std::uint64_t prev = 0;  // the previous word before this step
      for (std::size_t i = 0; i < words; ++i) {
        const std::uint64_t cur = row[i];
        const std::uint64_t next = i + 1 < words ? row[i + 1] : 0;
        const std::uint64_t left = cur << 1 | prev >> 63;    // pixel x-1 at bit x
        const std::uint64_t right = cur >> 1 | next << 63;   // pixel x+1 at bit x
        row[i] = erode ? (cur & left & right) : (cur | left | right);
        prev = cur;
      }
    }
    if (!erode) row[words - 1] &= bits.last_word_mask();
  }
}

/// Vertical pass: AND (erode) or OR (dilate) of the 2r+1 rows around each
/// row, handing every result word to `sink(y, i, word)`. Rows outside the
/// raster are background: an erosion whose window leaves it is zero, a
/// dilation ignores them.
template <typename Sink>
void vertical_pass(const BitRaster& bits, int radius, MorphOp op, Sink&& sink) {
  const int h = bits.height();
  const std::size_t words = bits.words_per_row();
  const bool erode = op == MorphOp::kErode;
  for (int y = 0; y < h; ++y) {
    const int top = y - radius;
    const int bottom = y + radius;
    if (erode && (top < 0 || bottom >= h)) {
      for (std::size_t i = 0; i < words; ++i) sink(y, i, std::uint64_t{0});
      continue;
    }
    const int first = std::max(top, 0);
    const int last = std::min(bottom, h - 1);
    for (std::size_t i = 0; i < words; ++i) {
      std::uint64_t acc = bits.row(first)[i];
      for (int yy = first + 1; yy <= last; ++yy) {
        acc = erode ? (acc & bits.row(yy)[i]) : (acc | bits.row(yy)[i]);
      }
      sink(y, i, acc);
    }
  }
}

/// One separable erosion/dilation from `bits` (consumed) into `dst`.
void packed_pass(BitRaster& bits, int radius, MorphOp op, BitRaster& dst) {
  horizontal_pass(bits, radius, op);
  dst.reset(bits.width(), bits.height());
  vertical_pass(bits, radius, op, [&dst](int y, std::size_t i, std::uint64_t word) {
    dst.row(y)[i] = word;
  });
}

/// One separable erosion/dilation from `bits` (consumed), unpacking the
/// vertical pass straight into `out`.
void final_pass(BitRaster& bits, int radius, MorphOp op, BinaryImage& out) {
  horizontal_pass(bits, radius, op);
  const int w = bits.width();
  out.reset(w, bits.height());
  std::uint8_t* base = out.data().data();
  vertical_pass(bits, radius, op, [base, w](int y, std::size_t i, std::uint64_t word) {
    const int x = static_cast<int>(i) * kWordBits;
    unpack_word(word,
                base + static_cast<std::size_t>(y) * static_cast<std::size_t>(w) +
                    static_cast<std::size_t>(x),
                std::min(kWordBits, w - x));
  });
}

/// One erosion or dilation: pack, pass, unpack.
void single_into(const BinaryImage& src, int radius, MorphOp op, BinaryImage& out,
                 BitRaster& scratch) {
  if (radius <= 0) {
    out = src;
    return;
  }
  pack_into(src, scratch);
  final_pass(scratch, radius, op, out);
}

/// Two chained passes (open/close) on one packing: the intermediate never
/// leaves the packed form.
void chained_into(const BinaryImage& src, int radius, MorphOp first, MorphOp second,
                  BinaryImage& out, BitRaster& scratch_a, BitRaster& scratch_b) {
  if (radius <= 0) {
    out = src;
    return;
  }
  pack_into(src, scratch_a);
  packed_pass(scratch_a, radius, first, scratch_b);
  final_pass(scratch_b, radius, second, out);
}

}  // namespace

void erode_into(const BinaryImage& src, int radius, BinaryImage& out,
                BitRaster& scratch) {
  single_into(src, radius, MorphOp::kErode, out, scratch);
}

void dilate_into(const BinaryImage& src, int radius, BinaryImage& out,
                 BitRaster& scratch) {
  single_into(src, radius, MorphOp::kDilate, out, scratch);
}

void open_into(const BinaryImage& src, int radius, BinaryImage& out,
               BitRaster& scratch_a, BitRaster& scratch_b) {
  chained_into(src, radius, MorphOp::kErode, MorphOp::kDilate, out, scratch_a, scratch_b);
}

void close_into(const BinaryImage& src, int radius, BinaryImage& out,
                BitRaster& scratch_a, BitRaster& scratch_b) {
  chained_into(src, radius, MorphOp::kDilate, MorphOp::kErode, out, scratch_a, scratch_b);
}

BinaryImage erode(const BinaryImage& src, int radius) {
  BinaryImage out;
  BitRaster scratch;
  erode_into(src, radius, out, scratch);
  return out;
}

BinaryImage dilate(const BinaryImage& src, int radius) {
  BinaryImage out;
  BitRaster scratch;
  dilate_into(src, radius, out, scratch);
  return out;
}

BinaryImage open(const BinaryImage& src, int radius) {
  BinaryImage out;
  BitRaster scratch_a;
  BitRaster scratch_b;
  open_into(src, radius, out, scratch_a, scratch_b);
  return out;
}

BinaryImage close(const BinaryImage& src, int radius) {
  BinaryImage out;
  BitRaster scratch_a;
  BitRaster scratch_b;
  close_into(src, radius, out, scratch_a, scratch_b);
  return out;
}

std::size_t foreground_area(const BinaryImage& src) {
  std::size_t count = 0;
  for (std::uint8_t v : src.data()) {
    if (v == kForeground) ++count;
  }
  return count;
}

}  // namespace hdc::imaging
