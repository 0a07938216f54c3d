#include "imaging/filter.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "imaging/draw.hpp"
#include "imaging/morphology.hpp"

namespace hdc::imaging {
namespace {

double mean_of(const GrayImage& img) {
  double sum = std::accumulate(img.data().begin(), img.data().end(), 0.0);
  return sum / static_cast<double>(img.pixel_count());
}

TEST(BoxBlur, IdentityAtZeroRadiusAndSmoothing) {
  GrayImage img(21, 21, 0);
  img(10, 10) = 255;
  EXPECT_EQ(box_blur(img, 0), img);
  const GrayImage blurred = box_blur(img, 1);
  // The spike spreads over a 3x3 neighbourhood.
  EXPECT_GT(blurred(9, 9), 0);
  EXPECT_GT(blurred(11, 11), 0);
  EXPECT_LT(blurred(10, 10), 255);
  EXPECT_EQ(blurred(0, 0), 0);
}

TEST(BoxBlur, PreservesConstantImage) {
  const GrayImage img(16, 16, 133);
  EXPECT_EQ(box_blur(img, 3), img);
}

TEST(GaussianBlur, ReducesVarianceKeepsMean) {
  GrayImage img(32, 32, 0);
  fill_rect(img, 8, 8, 23, 23, 200);
  const double mean_before = mean_of(img);
  const GrayImage out = gaussian_blur(img, 2.0);
  EXPECT_NEAR(mean_of(out), mean_before, 6.0);
  // Edge gradient softened: mid-edge pixel now between 0 and 200.
  EXPECT_GT(out(7, 15), 0);
  EXPECT_LT(out(7, 15), 200);
  EXPECT_EQ(gaussian_blur(img, 0.0), img);
}

TEST(Threshold, FixedValue) {
  GrayImage img(4, 1);
  img(0, 0) = 10;
  img(1, 0) = 99;
  img(2, 0) = 100;
  img(3, 0) = 255;
  const BinaryImage out = threshold(img, 100);
  EXPECT_EQ(out(0, 0), kBackground);
  EXPECT_EQ(out(1, 0), kBackground);
  EXPECT_EQ(out(2, 0), kForeground);
  EXPECT_EQ(out(3, 0), kForeground);
}

TEST(Otsu, SeparatesBimodalImage) {
  GrayImage img(40, 40, 30);
  fill_rect(img, 10, 10, 29, 29, 220);
  std::uint8_t chosen = 0;
  const BinaryImage out = otsu_threshold(img, &chosen);
  EXPECT_GT(chosen, 30);
  EXPECT_LE(chosen, 220);
  EXPECT_EQ(out(20, 20), kForeground);
  EXPECT_EQ(out(0, 0), kBackground);
  EXPECT_EQ(foreground_area(out), 400u);
}

TEST(Otsu, NoisyBimodalStillSeparates) {
  hdc::util::Rng rng(5);
  GrayImage img(60, 60, 60);
  fill_rect(img, 20, 20, 39, 39, 190);
  const GrayImage noisy = add_gaussian_noise(img, 15.0, rng);
  const BinaryImage out = otsu_threshold(noisy);
  // The bright square should dominate the foreground.
  std::size_t inside = 0;
  for (int y = 20; y < 40; ++y) {
    for (int x = 20; x < 40; ++x) {
      if (out(x, y) == kForeground) ++inside;
    }
  }
  EXPECT_GT(inside, 390u);
  EXPECT_LT(foreground_area(out) - inside, 30u);
}

TEST(Invert, IsInvolution) {
  GrayImage img(8, 8);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    img.data()[i] = static_cast<std::uint8_t>(i * 4);
  }
  EXPECT_EQ(invert(invert(img)), img);
  EXPECT_EQ(invert(img)(0, 0), 255);
}

TEST(Invert, MapsEveryValueToItsComplement) {
  // All 256 grey levels in one row, then an odd-length row so the loop's
  // vector body and scalar tail are both exercised.
  GrayImage all(256, 1);
  for (int v = 0; v < 256; ++v) all(v, 0) = static_cast<std::uint8_t>(v);
  GrayImage out;
  invert_into(all, out);
  ASSERT_EQ(out.width(), 256);
  for (int v = 0; v < 256; ++v) EXPECT_EQ(out(v, 0), 255 - v) << "value " << v;

  GrayImage odd(77, 3);
  for (std::size_t i = 0; i < odd.data().size(); ++i) {
    odd.data()[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  invert_into(odd, out);  // reuses the larger buffer
  ASSERT_EQ(out.width(), 77);
  ASSERT_EQ(out.height(), 3);
  for (std::size_t i = 0; i < odd.data().size(); ++i) {
    EXPECT_EQ(out.data()[i], 255 - odd.data()[i]) << "pixel " << i;
  }
}

TEST(GaussianNoise, DeterministicPerSeedAndBounded) {
  const GrayImage img(32, 32, 128);
  hdc::util::Rng rng_a(9), rng_b(9), rng_c(10);
  const GrayImage a = add_gaussian_noise(img, 10.0, rng_a);
  const GrayImage b = add_gaussian_noise(img, 10.0, rng_b);
  const GrayImage c = add_gaussian_noise(img, 10.0, rng_c);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_NEAR(mean_of(a), 128.0, 2.0);
  hdc::util::Rng rng_d(11);
  EXPECT_EQ(add_gaussian_noise(img, 0.0, rng_d), img);
}

TEST(SaltPepper, FlipsRequestedFraction) {
  const GrayImage img(100, 100, 128);
  hdc::util::Rng rng(13);
  const GrayImage out = add_salt_pepper(img, 0.1, rng);
  std::size_t flipped = 0;
  for (std::uint8_t v : out.data()) {
    if (v == 0 || v == 255) ++flipped;
  }
  EXPECT_NEAR(static_cast<double>(flipped) / 10000.0, 0.1, 0.02);
}

TEST(Lighting, GainBiasAndClamping) {
  GrayImage img(2, 1);
  img(0, 0) = 100;
  img(1, 0) = 250;
  const GrayImage out = adjust_lighting(img, 1.5, 10.0);
  EXPECT_EQ(out(0, 0), 160);
  EXPECT_EQ(out(1, 0), 255);  // clamped
  const GrayImage dark = adjust_lighting(img, 0.1, -20.0);
  EXPECT_EQ(dark(0, 0), 0);  // clamped at 0
}

}  // namespace
}  // namespace hdc::imaging
