#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "imaging/components.hpp"
#include "imaging/draw.hpp"
#include "imaging/filter.hpp"
#include "imaging/morphology.hpp"
#include "recognition/recognizer.hpp"
#include "signs/scene.hpp"
#include "util/rng.hpp"

namespace hdc::imaging {
namespace {

TEST(Morphology, ErodeShrinksDilateGrows) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 5, 5, 14, 14, kForeground);  // 10x10 block
  EXPECT_EQ(foreground_area(erode(img, 1)), 64u);   // 8x8
  EXPECT_EQ(foreground_area(dilate(img, 1)), 144u); // 12x12
  EXPECT_EQ(erode(img, 0), img);
}

TEST(Morphology, OpenRemovesSpecksKeepsBlocks) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 5, 5, 14, 14, kForeground);
  img(1, 1) = kForeground;  // single-pixel speck
  const BinaryImage opened = open(img, 1);
  EXPECT_EQ(opened(1, 1), kBackground);
  EXPECT_EQ(opened(10, 10), kForeground);
  EXPECT_EQ(foreground_area(opened), 100u);  // block fully restored
}

TEST(Morphology, CloseFillsHoles) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 5, 5, 14, 14, kForeground);
  img(10, 10) = kBackground;  // pinhole
  const BinaryImage closed = close(img, 1);
  EXPECT_EQ(closed(10, 10), kForeground);
  EXPECT_EQ(foreground_area(closed), 100u);
}

TEST(Morphology, CloseBridgesSmallGap) {
  BinaryImage img(30, 10, kBackground);
  fill_rect(img, 2, 4, 13, 6, kForeground);
  fill_rect(img, 15, 4, 27, 6, kForeground);  // 1-px gap at x=14
  const BinaryImage closed = close(img, 1);
  EXPECT_EQ(closed(14, 5), kForeground);
}

TEST(Morphology, ErodeDilateDuality) {
  // Erosion of the foreground == dilation of the background (complement).
  BinaryImage img(16, 16, kBackground);
  fill_rect(img, 4, 4, 11, 11, kForeground);
  img(6, 6) = kBackground;
  const BinaryImage a = erode(img, 1);
  BinaryImage complement(16, 16);
  for (std::size_t i = 0; i < img.data().size(); ++i) {
    complement.data()[i] = img.data()[i] == kForeground ? kBackground : kForeground;
  }
  const BinaryImage b = dilate(complement, 1);
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    const bool fg_a = a.data()[i] == kForeground;
    const bool bg_b = b.data()[i] == kBackground;
    EXPECT_EQ(fg_a, bg_b) << "pixel " << i;
  }
}

TEST(Morphology, OpeningAndClosingAreIdempotent) {
  // Classic lattice property: applying opening (or closing) twice equals
  // applying it once. Checked on an irregular composite shape.
  BinaryImage img(40, 40, kBackground);
  fill_rect(img, 5, 5, 20, 12, kForeground);
  fill_rect(img, 15, 10, 35, 30, kForeground);
  img(3, 3) = kForeground;   // speck
  img(25, 20) = kBackground; // pinhole
  const BinaryImage opened = open(img, 1);
  EXPECT_EQ(open(opened, 1), opened);
  const BinaryImage closed = close(img, 1);
  EXPECT_EQ(close(closed, 1), closed);
}

TEST(Morphology, ExtensivityAndAntiExtensivity) {
  // Opening only removes pixels; closing only adds them.
  BinaryImage img(30, 30, kBackground);
  fill_rect(img, 8, 8, 21, 21, kForeground);
  img(10, 10) = kBackground;
  img(2, 2) = kForeground;
  const BinaryImage opened = open(img, 1);
  const BinaryImage closed = close(img, 1);
  for (int y = 0; y < 30; ++y) {
    for (int x = 0; x < 30; ++x) {
      if (opened(x, y) == kForeground) {
        EXPECT_EQ(img(x, y), kForeground);
      }
      if (img(x, y) == kForeground) {
        EXPECT_EQ(closed(x, y), kForeground);
      }
    }
  }
}

// The byte-per-pixel morphology the packed passes replaced: a separable
// square element as AND (erode) / OR (dilate) over shifted byte rows, with
// pixels outside the raster counting as background. Kept as the reference
// that pins the packed version bit for bit.
enum class RefOp { kErode, kDilate };

BinaryImage reference_morph(const BinaryImage& src, int radius, RefOp op) {
  if (radius <= 0) return src;
  const bool is_erode = op == RefOp::kErode;
  const int w = src.width();
  const int h = src.height();
  const auto row_size = static_cast<std::size_t>(w);
  BinaryImage horizontal(w, h);
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* in = src.data().data() + static_cast<std::size_t>(y) * row_size;
    std::uint8_t* mid = horizontal.data().data() + static_cast<std::size_t>(y) * row_size;
    std::memcpy(mid, in, row_size);
    for (int d = 1; d <= radius; ++d) {
      const int left_end = std::max(w - d, 0);
      if (is_erode) {
        for (int x = 0; x < left_end; ++x) mid[x] &= in[x + d];
        for (int x = left_end; x < w; ++x) mid[x] = kBackground;
        for (int x = w - 1; x >= d; --x) mid[x] &= in[x - d];
        for (int x = 0; x < d && x < w; ++x) mid[x] = kBackground;
      } else {
        for (int x = 0; x < left_end; ++x) mid[x] |= in[x + d];
        for (int x = w - 1; x >= d; --x) mid[x] |= in[x - d];
      }
    }
  }
  BinaryImage out(w, h);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* dst = out.data().data() + static_cast<std::size_t>(y) * row_size;
    const int top = y - radius;
    const int bottom = y + radius;
    if (is_erode && (top < 0 || bottom >= h)) {
      std::memset(dst, kBackground, row_size);
      continue;
    }
    const int first = std::max(top, 0);
    const int last = std::min(bottom, h - 1);
    std::memcpy(dst, horizontal.data().data() + static_cast<std::size_t>(first) * row_size,
                row_size);
    for (int yy = first + 1; yy <= last; ++yy) {
      const std::uint8_t* mid =
          horizontal.data().data() + static_cast<std::size_t>(yy) * row_size;
      for (int x = 0; x < w; ++x) dst[x] = is_erode ? (dst[x] & mid[x]) : (dst[x] | mid[x]);
    }
  }
  return out;
}

/// Checks erode/dilate/open/close, allocating and into reused scratches,
/// against the byte reference.
void expect_packed_matches_reference(const BinaryImage& img, int radius,
                                     BitRaster& scratch_a, BitRaster& scratch_b,
                                     BinaryImage& out, const std::string& where) {
  const BinaryImage want_erode = reference_morph(img, radius, RefOp::kErode);
  const BinaryImage want_dilate = reference_morph(img, radius, RefOp::kDilate);
  const BinaryImage want_open = reference_morph(want_erode, radius, RefOp::kDilate);
  const BinaryImage want_close = reference_morph(want_dilate, radius, RefOp::kErode);

  ASSERT_TRUE(erode(img, radius) == want_erode) << "erode " << where;
  ASSERT_TRUE(dilate(img, radius) == want_dilate) << "dilate " << where;
  ASSERT_TRUE(open(img, radius) == want_open) << "open " << where;
  ASSERT_TRUE(close(img, radius) == want_close) << "close " << where;

  erode_into(img, radius, out, scratch_a);
  ASSERT_TRUE(out == want_erode) << "erode_into " << where;
  dilate_into(img, radius, out, scratch_b);
  ASSERT_TRUE(out == want_dilate) << "dilate_into " << where;
  open_into(img, radius, out, scratch_a, scratch_b);
  ASSERT_TRUE(out == want_open) << "open_into " << where;
  close_into(img, radius, out, scratch_a, scratch_b);
  ASSERT_TRUE(out == want_close) << "close_into " << where;
}

TEST(Morphology, PackedPassesBitIdenticalToByteReferenceOnRandomRasters) {
  // Widths straddle the 64-pixel word edges; radii reach past one word.
  // The scratches are carried across every size, so reuse after a larger
  // or smaller raster is covered too.
  hdc::util::Rng rng(4321);
  BitRaster scratch_a;
  BitRaster scratch_b;
  BinaryImage out;
  for (const int w : {1, 2, 63, 64, 65, 127, 128, 129, 479, 480, 481}) {
    for (const int h : {1, 2, 3, 37}) {
      for (const int radius : {1, 2, 3, 63, 64, 65}) {
        const double density = rng.uniform();
        BinaryImage img(w, h, kBackground);
        for (std::uint8_t& px : img.data()) {
          px = rng.uniform() < density ? kForeground : kBackground;
        }
        expect_packed_matches_reference(
            img, radius, scratch_a, scratch_b, out,
            std::to_string(w) + "x" + std::to_string(h) + " r=" +
                std::to_string(radius) + " density=" + std::to_string(density));
      }
    }
  }
}

TEST(Morphology, PackedPassesBitIdenticalToByteReferenceOnRenderedSigns) {
  // The pipeline's real input: noisy, cluttered renders after invert + Otsu.
  hdc::util::Rng rng(77);
  BitRaster scratch_a;
  BitRaster scratch_b;
  BinaryImage out;
  signs::RenderOptions options;
  options.noise_stddev = 14.0;
  options.clutter_count = 6;
  for (const signs::HumanSign sign : signs::kAllSigns) {
    for (const double azimuth : {0.0, 35.0, 70.0, 110.0}) {
      const GrayImage frame = signs::render_sign(sign, {3.5, 3.0, azimuth}, options, &rng);
      const BinaryImage binary = otsu_threshold(invert(frame));
      for (const int radius : {1, 2, 3}) {
        expect_packed_matches_reference(
            binary, radius, scratch_a, scratch_b, out,
            "sign " + std::to_string(static_cast<int>(sign)) + " azimuth " +
                std::to_string(azimuth) + " r=" + std::to_string(radius));
      }
    }
  }
}

TEST(Components, LabelsDisjointRegions) {
  BinaryImage img(30, 20, kBackground);
  fill_rect(img, 2, 2, 6, 6, kForeground);    // 25 px
  fill_rect(img, 12, 2, 13, 3, kForeground);  // 4 px
  fill_rect(img, 20, 10, 27, 17, kForeground);  // 64 px
  const Labeling labeling = label_components(img);
  ASSERT_EQ(labeling.components.size(), 3u);
  std::vector<std::size_t> areas;
  for (const Component& c : labeling.components) areas.push_back(c.area);
  std::sort(areas.begin(), areas.end());
  EXPECT_EQ(areas, (std::vector<std::size_t>{4u, 25u, 64u}));
}

TEST(Components, EightConnectivityJoinsDiagonals) {
  BinaryImage img(4, 4, kBackground);
  img(0, 0) = kForeground;
  img(1, 1) = kForeground;  // diagonal neighbour
  img(2, 2) = kForeground;
  const Labeling labeling = label_components(img);
  EXPECT_EQ(labeling.components.size(), 1u);
  EXPECT_EQ(labeling.components[0].area, 3u);
}

TEST(Components, StatisticsAreCorrect) {
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 4, 6, 9, 11, kForeground);  // 6x6 at (4..9, 6..11)
  const Labeling labeling = label_components(img);
  ASSERT_EQ(labeling.components.size(), 1u);
  const Component& c = labeling.components[0];
  EXPECT_EQ(c.min_x, 4);
  EXPECT_EQ(c.max_x, 9);
  EXPECT_EQ(c.min_y, 6);
  EXPECT_EQ(c.max_y, 11);
  EXPECT_NEAR(c.centroid.x, 6.5, 1e-9);
  EXPECT_NEAR(c.centroid.y, 8.5, 1e-9);
}

TEST(Components, UShapeMergesAcrossScanOrder) {
  // A U-shape forces provisional labels to merge in pass 1.
  BinaryImage img(20, 20, kBackground);
  fill_rect(img, 2, 2, 4, 15, kForeground);   // left arm
  fill_rect(img, 12, 2, 14, 15, kForeground); // right arm
  fill_rect(img, 2, 13, 14, 15, kForeground); // bridge at the bottom
  const Labeling labeling = label_components(img);
  EXPECT_EQ(labeling.components.size(), 1u);
}

TEST(LargestComponent, PicksBiggestAboveMinArea) {
  BinaryImage img(30, 20, kBackground);
  fill_rect(img, 2, 2, 6, 6, kForeground);
  fill_rect(img, 20, 10, 27, 17, kForeground);  // larger
  const BinaryImage mask = largest_component_mask(img, 1);
  EXPECT_EQ(mask(22, 12), kForeground);
  EXPECT_EQ(mask(3, 3), kBackground);
  EXPECT_EQ(foreground_area(mask), 64u);
  // min_area above everything yields empty mask.
  EXPECT_EQ(foreground_area(largest_component_mask(img, 100)), 0u);
  // Empty input yields empty mask.
  const BinaryImage empty(5, 5, kBackground);
  EXPECT_EQ(foreground_area(largest_component_mask(empty, 1)), 0u);
}

TEST(RemoveSmall, DespecklesBelowThreshold) {
  BinaryImage img(30, 20, kBackground);
  fill_rect(img, 2, 2, 6, 6, kForeground);    // 25
  fill_rect(img, 12, 2, 13, 3, kForeground);  // 4
  const BinaryImage cleaned = remove_small_components(img, 10);
  EXPECT_EQ(foreground_area(cleaned), 25u);
  EXPECT_EQ(cleaned(12, 2), kBackground);
}

// Straightforward per-pixel two-pass labelling (bounds-checked W/NW/N/NE
// neighbour loop, union-find over provisional labels, per-pixel double
// sums). The production version labels foreground runs instead; this
// reference pins bit-identity — labels, component order AND statistics.
Labeling reference_label(const BinaryImage& binary) {
  struct RefSet {
    std::vector<std::int32_t> parent;
    std::int32_t make_set() {
      parent.push_back(static_cast<std::int32_t>(parent.size()));
      return parent.back();
    }
    std::int32_t find(std::int32_t x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    }
    void unite(std::int32_t a, std::int32_t b) {
      a = find(a);
      b = find(b);
      if (a != b) {
        parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  };
  Labeling out;
  out.labels.reset(binary.width(), binary.height(), 0);
  RefSet sets;
  sets.make_set();
  for (int y = 0; y < binary.height(); ++y) {
    for (int x = 0; x < binary.width(); ++x) {
      if (binary(x, y) != kForeground) continue;
      std::int32_t neighbour = 0;
      constexpr int offsets[4][2] = {{-1, 0}, {-1, -1}, {0, -1}, {1, -1}};
      for (const auto& off : offsets) {
        const int nx = x + off[0];
        const int ny = y + off[1];
        if (!binary.in_bounds(nx, ny)) continue;
        const std::int32_t nl = out.labels(nx, ny);
        if (nl == 0) continue;
        if (neighbour == 0) {
          neighbour = nl;
        } else {
          sets.unite(neighbour, nl);
        }
      }
      out.labels(x, y) = neighbour != 0 ? neighbour : sets.make_set();
    }
  }
  std::vector<std::int32_t> remap;
  for (int y = 0; y < binary.height(); ++y) {
    for (int x = 0; x < binary.width(); ++x) {
      const std::int32_t l = out.labels(x, y);
      if (l == 0) continue;
      const std::int32_t root = sets.find(l);
      if (static_cast<std::size_t>(root) >= remap.size()) {
        remap.resize(static_cast<std::size_t>(root) + 1, 0);
      }
      if (remap[static_cast<std::size_t>(root)] == 0) {
        remap[static_cast<std::size_t>(root)] =
            static_cast<std::int32_t>(out.components.size()) + 1;
        out.components.push_back(
            Component{static_cast<std::int32_t>(out.components.size()) + 1, 0, x,
                      y, x, y, {}});
      }
      const std::int32_t compact = remap[static_cast<std::size_t>(root)];
      out.labels(x, y) = compact;
      Component& comp = out.components[static_cast<std::size_t>(compact - 1)];
      ++comp.area;
      comp.min_x = std::min(comp.min_x, x);
      comp.min_y = std::min(comp.min_y, y);
      comp.max_x = std::max(comp.max_x, x);
      comp.max_y = std::max(comp.max_y, y);
      comp.centroid.x += x;
      comp.centroid.y += y;
    }
  }
  for (Component& comp : out.components) {
    if (comp.area > 0) {
      comp.centroid.x /= static_cast<double>(comp.area);
      comp.centroid.y /= static_cast<double>(comp.area);
    }
  }
  return out;
}

void expect_same_components(const std::vector<Component>& got,
                            const std::vector<Component>& want,
                            const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Component& g = got[i];
    const Component& r = want[i];
    EXPECT_EQ(g.label, r.label) << where << " component " << i;
    EXPECT_EQ(g.area, r.area) << where << " component " << i;
    EXPECT_EQ(g.min_x, r.min_x) << where << " component " << i;
    EXPECT_EQ(g.min_y, r.min_y) << where << " component " << i;
    EXPECT_EQ(g.max_x, r.max_x) << where << " component " << i;
    EXPECT_EQ(g.max_y, r.max_y) << where << " component " << i;
    // Integer run sums equal the per-pixel double sums: exact, not near.
    EXPECT_EQ(g.centroid.x, r.centroid.x) << where << " component " << i;
    EXPECT_EQ(g.centroid.y, r.centroid.y) << where << " component " << i;
  }
}

/// The largest-component mask derived from the reference labelling: the
/// largest area at or above `min_area`, the earliest label on a tie.
BinaryImage reference_largest_mask(const BinaryImage& img, const Labeling& want,
                                   std::size_t min_area) {
  const Component* largest = nullptr;
  for (const Component& comp : want.components) {
    if (comp.area >= min_area && (largest == nullptr || comp.area > largest->area)) {
      largest = &comp;
    }
  }
  BinaryImage mask(img.width(), img.height(), kBackground);
  if (largest == nullptr) return mask;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (want.labels(x, y) == largest->label) mask(x, y) = kForeground;
    }
  }
  return mask;
}

/// label_components, largest_component_mask and remove_small_components
/// against the per-pixel reference.
void expect_matches_reference(const BinaryImage& img, const std::string& where) {
  const Labeling got = label_components(img);
  const Labeling want = reference_label(img);
  ASSERT_TRUE(got.labels == want.labels) << where;
  expect_same_components(got.components, want.components, where);

  ASSERT_TRUE(largest_component_mask(img, 3) == reference_largest_mask(img, want, 3))
      << where;

  const BinaryImage cleaned = remove_small_components(img, 4);
  BinaryImage want_cleaned(img.width(), img.height(), kBackground);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      const std::int32_t l = want.labels(x, y);
      if (l != 0 && want.components[static_cast<std::size_t>(l - 1)].area >= 4) {
        want_cleaned(x, y) = kForeground;
      }
    }
  }
  ASSERT_TRUE(cleaned == want_cleaned) << where;
}

BinaryImage random_raster(hdc::util::Rng& rng, int w, int h, double density) {
  BinaryImage img(w, h, kBackground);
  for (std::uint8_t& px : img.data()) {
    px = rng.uniform() < density ? kForeground : kBackground;
  }
  return img;
}

TEST(Components, RunLabellingBitIdenticalToReferenceOnRandomRasters) {
  hdc::util::Rng rng(1234);
  for (int trial = 0; trial < 120; ++trial) {
    const int w = 1 + static_cast<int>(rng.uniform() * 70);
    const int h = 1 + static_cast<int>(rng.uniform() * 50);
    const double density = rng.uniform();  // sparse through dense
    expect_matches_reference(random_raster(rng, w, h, density),
                             "trial " + std::to_string(trial));
  }
}

TEST(Components, RunLabellingBitIdenticalAcrossEveryWidthTo140) {
  // Runs end inside, on and past each 8-byte word of the run-end scan;
  // dense rasters give long runs, sparse ones short runs.
  hdc::util::Rng rng(99);
  for (int w = 1; w <= 140; ++w) {
    for (const double density : {0.15, 0.6, 0.93}) {
      const int h = 1 + static_cast<int>(rng.uniform() * 12);
      expect_matches_reference(random_raster(rng, w, h, density),
                               "w=" + std::to_string(w) + " density=" +
                                   std::to_string(density));
    }
    // One run per row, of every length up to the width, from every start
    // in the first word.
    BinaryImage img(w, w, kBackground);
    for (int y = 0; y < w; ++y) {
      const int x0 = y % 8 < w ? y % 8 : 0;
      fill_rect(img, x0, y, std::min(w - 1, x0 + y), y, kForeground);
    }
    expect_matches_reference(img, "staircase w=" + std::to_string(w));
  }
}

TEST(Components, UniformAndCheckerboardRasters) {
  for (const int w : {1, 2, 7, 8, 9, 64, 65}) {
    for (const int h : {1, 2, 5}) {
      const std::string where = std::to_string(w) + "x" + std::to_string(h);
      const BinaryImage full(w, h, kForeground);
      expect_matches_reference(full, "full " + where);
      ASSERT_EQ(label_components(full).components.size(), 1u) << where;
      EXPECT_EQ(label_components(full).components[0].area,
                static_cast<std::size_t>(w) * static_cast<std::size_t>(h));

      const BinaryImage empty(w, h, kBackground);
      expect_matches_reference(empty, "empty " + where);
      EXPECT_TRUE(label_components(empty).components.empty()) << where;
      EXPECT_EQ(foreground_area(largest_component_mask(empty, 1)), 0u) << where;

      // Every foreground pixel touches the next row's only diagonally.
      BinaryImage checker(w, h, kBackground);
      for (int y = 0; y < h; ++y) {
        for (int x = (y % 2); x < w; x += 2) checker(x, y) = kForeground;
      }
      expect_matches_reference(checker, "checkerboard " + where);
      // One row or one column: isolated pixels; otherwise one component.
      std::size_t want_count = 1;
      if (h == 1) want_count = static_cast<std::size_t>((w + 1) / 2);
      if (w == 1) want_count = static_cast<std::size_t>((h + 1) / 2);
      EXPECT_EQ(label_components(checker).components.size(), want_count)
          << "checkerboard " << where;
    }
  }
}

TEST(Components, RunsTouchingOnlyAtACornerJoin) {
  // Row 0 holds [0,3]; row 1 starts at x=4 (touches at the corner, joins)
  // and row 3 at x=5 under row 2's [0,3] (one-pixel gap, stays apart).
  BinaryImage img(12, 4, kBackground);
  fill_rect(img, 0, 0, 3, 0, kForeground);
  fill_rect(img, 4, 1, 7, 1, kForeground);   // SE corner of row 0's run
  fill_rect(img, 0, 2, 3, 2, kForeground);   // SW corner of row 1's run
  fill_rect(img, 5, 3, 9, 3, kForeground);   // gap of one pixel to [0,3]
  expect_matches_reference(img, "corner");
  const Labeling labeling = label_components(img);
  ASSERT_EQ(labeling.components.size(), 2u);
  EXPECT_EQ(labeling.components[0].area, 12u);
  EXPECT_EQ(labeling.components[1].area, 5u);
  EXPECT_EQ(labeling.labels(0, 0), 1);
  EXPECT_EQ(labeling.labels(4, 1), 1);
  EXPECT_EQ(labeling.labels(0, 2), 1);
  EXPECT_EQ(labeling.labels(5, 3), 2);
}

TEST(LargestComponent, AreaTieGoesToTheEarliestInRasterOrder) {
  // Two 4x4 blocks. The right one starts a row earlier, so it is first in
  // raster order and wins although the left one is leftmost.
  BinaryImage img(20, 10, kBackground);
  fill_rect(img, 1, 2, 4, 5, kForeground);
  fill_rect(img, 10, 1, 13, 4, kForeground);
  expect_matches_reference(img, "tie");
  const BinaryImage mask = largest_component_mask(img, 1);
  EXPECT_EQ(foreground_area(mask), 16u);
  EXPECT_EQ(mask(10, 1), kForeground);
  EXPECT_EQ(mask(1, 2), kBackground);

  // Same row: the leftmost starts first.
  BinaryImage row_tie(20, 10, kBackground);
  fill_rect(row_tie, 12, 3, 15, 6, kForeground);
  fill_rect(row_tie, 2, 3, 5, 6, kForeground);
  expect_matches_reference(row_tie, "row tie");
  const BinaryImage row_mask = largest_component_mask(row_tie, 1);
  EXPECT_EQ(row_mask(2, 3), kForeground);
  EXPECT_EQ(row_mask(12, 3), kBackground);
}

TEST(LargestComponent, ReusedArenasMatchFreshCallsAcrossSizes) {
  // One Labeling/LabelScratch carried across shrinking and growing
  // rasters: the mask equals a fresh call, and labeling.components equals
  // label_components(img).components.
  hdc::util::Rng rng(555);
  BinaryImage mask;
  Labeling labeling;
  LabelScratch scratch;
  for (const int w : {97, 5, 480, 1, 64, 33}) {
    for (const int h : {41, 2, 360, 7}) {
      const BinaryImage img = random_raster(rng, w, h, rng.uniform());
      const std::string where = std::to_string(w) + "x" + std::to_string(h);
      largest_component_mask_into(img, 2, mask, labeling, scratch);
      ASSERT_TRUE(mask == largest_component_mask(img, 2)) << where;
      expect_same_components(labeling.components, label_components(img).components,
                             where);
    }
  }
}

TEST(LargestComponent, SilhouetteOfRenderedSignsMatchesReference) {
  // The pipeline's real input: invert + Otsu + close/open over noisy,
  // cluttered renders.
  hdc::util::Rng rng(31);
  signs::RenderOptions options;
  options.noise_stddev = 14.0;
  options.clutter_count = 6;
  BinaryImage closed;
  BinaryImage opened;
  BitRaster scratch_a;
  BitRaster scratch_b;
  BinaryImage mask;
  Labeling labeling;
  LabelScratch scratch;
  for (const signs::HumanSign sign : signs::kAllSigns) {
    for (const double azimuth : {0.0, 35.0, 70.0, 110.0}) {
      const GrayImage frame = signs::render_sign(sign, {3.5, 3.0, azimuth}, options, &rng);
      const BinaryImage binary = otsu_threshold(invert(frame));
      close_into(binary, 1, closed, scratch_a, scratch_b);
      open_into(closed, 1, opened, scratch_a, scratch_b);
      const std::string where = "sign " + std::to_string(static_cast<int>(sign)) +
                                " azimuth " + std::to_string(azimuth);
      const Labeling want = reference_label(opened);
      largest_component_mask_into(opened, 120, mask, labeling, scratch);
      ASSERT_TRUE(mask == reference_largest_mask(opened, want, 120)) << where;
      EXPECT_GT(foreground_area(mask), 0u) << where;
      expect_same_components(labeling.components, want.components, where);
    }
  }
}

TEST(LargestComponent, RecognizeReusingItsScratchMatchesAFreshScratch) {
  // recognize() keeps one scratch across calls; alternating frames
  // (different signs, an empty frame, a too-small blob) must give exactly
  // what a fresh scratch gives.
  using recognition::RecognitionResult;
  using recognition::RecognizerConfig;
  using recognition::RecognizerScratch;
  const recognition::SaxSignRecognizer recognizer(RecognizerConfig{},
                                                  recognition::DatabaseBuildOptions{});
  hdc::util::Rng rng(8);
  signs::RenderOptions options;
  options.noise_stddev = 10.0;
  options.clutter_count = 4;
  std::vector<GrayImage> frames;
  for (const signs::HumanSign sign : signs::kAllSigns) {
    frames.push_back(signs::render_sign(sign, {3.5, 3.0, 20.0}, options, &rng));
    frames.emplace_back(options.width, options.height, std::uint8_t{255});
  }
  GrayImage speck(options.width, options.height, std::uint8_t{255});
  fill_rect(speck, 100, 100, 104, 104, std::uint8_t{0});
  frames.push_back(speck);

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const RecognitionResult got = recognizer.recognize(frames[i]);
      RecognizerScratch fresh;
      RecognitionResult want;
      recognition::recognize_frame_into(recognizer.config(), recognizer.database(),
                                        frames[i], fresh, want);
      const std::string where = "pass " + std::to_string(pass) + " frame " +
                                std::to_string(i);
      EXPECT_EQ(got.accepted, want.accepted) << where;
      EXPECT_EQ(got.sign, want.sign) << where;
      EXPECT_EQ(got.reject_reason, want.reject_reason) << where;
      EXPECT_EQ(got.distance, want.distance) << where;
      EXPECT_EQ(got.margin, want.margin) << where;
      EXPECT_EQ(got.sax_word, want.sax_word) << where;
    }
  }
}

}  // namespace
}  // namespace hdc::imaging
