#include "imaging/filter.hpp"

#include <array>
#include <cmath>

#include "util/geometry.hpp"

namespace hdc::imaging {

namespace {

/// Horizontal box pass with clamp-to-edge; the vertical pass runs the same
/// code on the transposed access pattern.
void box_pass_horizontal(const GrayImage& src, int radius, GrayImage& out) {
  out.reset(src.width(), src.height());
  const int window = 2 * radius + 1;
  for (int y = 0; y < src.height(); ++y) {
    int sum = 0;
    for (int x = -radius; x <= radius; ++x) sum += src.clamped(x, y);
    for (int x = 0; x < src.width(); ++x) {
      out(x, y) = static_cast<std::uint8_t>(sum / window);
      sum += src.clamped(x + radius + 1, y) - src.clamped(x - radius, y);
    }
  }
}

void box_pass_vertical(const GrayImage& src, int radius, GrayImage& out) {
  out.reset(src.width(), src.height());
  const int window = 2 * radius + 1;
  for (int x = 0; x < src.width(); ++x) {
    int sum = 0;
    for (int y = -radius; y <= radius; ++y) sum += src.clamped(x, y);
    for (int y = 0; y < src.height(); ++y) {
      out(x, y) = static_cast<std::uint8_t>(sum / window);
      sum += src.clamped(x, y + radius + 1) - src.clamped(x, y - radius);
    }
  }
}

}  // namespace

void box_blur_into(const GrayImage& src, int radius, GrayImage& out,
                   GrayImage& scratch) {
  if (radius <= 0) {
    out = src;
    return;
  }
  box_pass_horizontal(src, radius, scratch);
  box_pass_vertical(scratch, radius, out);
}

GrayImage box_blur(const GrayImage& src, int radius) {
  if (radius <= 0) return src;
  GrayImage out;
  GrayImage scratch;
  box_blur_into(src, radius, out, scratch);
  return out;
}

void gaussian_blur_into(const GrayImage& src, double sigma, GrayImage& out,
                        GrayImage& scratch) {
  if (sigma <= 0.0) {
    out = src;
    return;
  }
  // Ideal box width for 3 passes: w = sqrt(12 sigma^2 / 3 + 1).
  const double ideal = std::sqrt(4.0 * sigma * sigma + 1.0);
  int radius = static_cast<int>((ideal - 1.0) / 2.0);
  if (radius < 1) radius = 1;
  // Each box pass reads only `scratch` while writing `out`, so chaining
  // out -> out is alias-safe.
  box_pass_horizontal(src, radius, scratch);
  box_pass_vertical(scratch, radius, out);
  box_pass_horizontal(out, radius, scratch);
  box_pass_vertical(scratch, radius, out);
  box_pass_horizontal(out, radius, scratch);
  box_pass_vertical(scratch, radius, out);
}

GrayImage gaussian_blur(const GrayImage& src, double sigma) {
  if (sigma <= 0.0) return src;
  GrayImage out;
  GrayImage scratch;
  gaussian_blur_into(src, sigma, out, scratch);
  return out;
}

void threshold_into(const GrayImage& src, std::uint8_t value, BinaryImage& out) {
  out.reset(src.width(), src.height());
  const std::uint8_t* in = src.data().data();
  std::uint8_t* dst = out.data().data();
  const std::size_t count = src.data().size();
  // Branchless apply: (pixel >= value) is 0/1; negation yields 0x00/0xFF,
  // exactly kBackground/kForeground. A single data-independent row pass
  // like this vectorises to byte-compare + mask (16-32 px per instruction).
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = static_cast<std::uint8_t>(-static_cast<int>(in[i] >= value));
  }
}

BinaryImage threshold(const GrayImage& src, std::uint8_t value) {
  BinaryImage out;
  threshold_into(src, value, out);
  return out;
}

void otsu_threshold_into(const GrayImage& src, BinaryImage& out,
                         std::uint8_t* chosen) {
  // Four interleaved sub-histograms break the read-modify-write dependency
  // when neighbouring pixels share a bin (the common case on sky/field
  // backgrounds), letting the accumulation loop pipeline ~4x wider. The
  // merged histogram is bit-identical to a single-pass count.
  std::array<std::uint32_t, 256> h0{};
  std::array<std::uint32_t, 256> h1{};
  std::array<std::uint32_t, 256> h2{};
  std::array<std::uint32_t, 256> h3{};
  const std::uint8_t* pixels = src.data().data();
  const std::size_t count = src.data().size();
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    ++h0[pixels[i]];
    ++h1[pixels[i + 1]];
    ++h2[pixels[i + 2]];
    ++h3[pixels[i + 3]];
  }
  for (; i < count; ++i) ++h0[pixels[i]];
  std::array<std::uint64_t, 256> histogram{};
  for (int v = 0; v < 256; ++v) {
    histogram[v] = static_cast<std::uint64_t>(h0[v]) + h1[v] + h2[v] + h3[v];
  }

  const double total = static_cast<double>(src.data().size());
  double sum_all = 0.0;
  for (int v = 0; v < 256; ++v) sum_all += static_cast<double>(v) * static_cast<double>(histogram[v]);

  double sum_background = 0.0;
  double weight_background = 0.0;
  double best_variance = -1.0;
  int best_threshold = 128;

  for (int t = 0; t < 256; ++t) {
    weight_background += static_cast<double>(histogram[t]);
    if (weight_background == 0.0) continue;
    const double weight_foreground = total - weight_background;
    if (weight_foreground == 0.0) break;
    sum_background += static_cast<double>(t) * static_cast<double>(histogram[t]);
    const double mean_background = sum_background / weight_background;
    const double mean_foreground = (sum_all - sum_background) / weight_foreground;
    const double diff = mean_background - mean_foreground;
    const double variance = weight_background * weight_foreground * diff * diff;
    if (variance > best_variance) {
      best_variance = variance;
      best_threshold = t + 1;  // foreground is >= threshold
    }
  }
  if (chosen != nullptr) *chosen = static_cast<std::uint8_t>(best_threshold);
  threshold_into(src, static_cast<std::uint8_t>(best_threshold), out);
}

BinaryImage otsu_threshold(const GrayImage& src, std::uint8_t* chosen) {
  BinaryImage out;
  otsu_threshold_into(src, out, chosen);
  return out;
}

void invert_into(const GrayImage& src, GrayImage& out) {
  out.reset(src.width(), src.height());
  // Hoisted raw pointers: indexing through the vectors would reload their
  // data pointers after every uint8_t store (which may alias them) and keep
  // the loop from vectorising.
  const std::uint8_t* in = src.data().data();
  std::uint8_t* dst = out.data().data();
  const std::size_t n = src.data().size();
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::uint8_t>(255 - in[i]);
}

GrayImage invert(const GrayImage& src) {
  GrayImage out;
  invert_into(src, out);
  return out;
}

GrayImage add_gaussian_noise(const GrayImage& src, double stddev, hdc::util::Rng& rng) {
  if (stddev <= 0.0) return src;
  GrayImage out(src.width(), src.height());
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    const double noisy = src.data()[i] + rng.gaussian(0.0, stddev);
    out.data()[i] = static_cast<std::uint8_t>(hdc::util::clamp(noisy, 0.0, 255.0));
  }
  return out;
}

GrayImage add_salt_pepper(const GrayImage& src, double fraction, hdc::util::Rng& rng) {
  GrayImage out = src;
  if (fraction <= 0.0) return out;
  for (std::uint8_t& v : out.data()) {
    if (rng.chance(fraction)) v = rng.chance(0.5) ? 255 : 0;
  }
  return out;
}

GrayImage adjust_lighting(const GrayImage& src, double gain, double bias) {
  GrayImage out(src.width(), src.height());
  for (std::size_t i = 0; i < src.data().size(); ++i) {
    const double adjusted = gain * src.data()[i] + bias;
    out.data()[i] = static_cast<std::uint8_t>(hdc::util::clamp(adjusted, 0.0, 255.0));
  }
  return out;
}

}  // namespace hdc::imaging
