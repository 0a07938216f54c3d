// Connected-component labelling of binary images (8-connectivity) and the
// largest-component extractor that isolates the signaller silhouette from
// background clutter.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/image.hpp"
#include "util/geometry.hpp"

namespace hdc::imaging {

/// One labelled connected component.
struct Component {
  std::int32_t label{0};
  std::size_t area{0};
  int min_x{0}, min_y{0}, max_x{0}, max_y{0};
  hdc::util::Vec2 centroid{};
};

/// Result of labelling: a label raster (0 = background, 1..n components) and
/// per-component statistics. Components are numbered in raster order of
/// their first pixel.
struct Labeling {
  Image<std::int32_t> labels;
  std::vector<Component> components;  ///< indexed by label-1
};

/// One horizontal run of foreground pixels, [x0, x1] inclusive on row y.
struct ForegroundRun {
  int x0{0};
  int x1{0};
  int y{0};
};

/// Reusable arenas for run-length labelling. Keep one per worker; cleared,
/// not freed, between frames.
struct LabelScratch {
  std::vector<ForegroundRun> runs;  ///< every foreground run, raster order
  /// Per run: its union-find parent (an earlier run of its component, or
  /// itself) while runs are united, then its component label (1..n).
  std::vector<std::int32_t> run_label;
  /// Per-component integer coordinate sums, indexed by label-1; the
  /// centroids divide these by the area.
  std::vector<std::int64_t> sum_x;
  std::vector<std::int64_t> sum_y;
};

/// 8-connectivity labelling over foreground runs (a foreground pixel is one
/// equal to kForeground; any other value is background).
[[nodiscard]] Labeling label_components(const BinaryImage& binary);

/// label_components into a caller-owned Labeling; the allocating version
/// delegates here.
void label_components_into(const BinaryImage& binary, Labeling& out,
                           LabelScratch& scratch);

/// Returns a binary mask of the largest component (empty image -> all
/// background). Components below `min_area` pixels are ignored; if none
/// qualify the mask is all background. Equal areas: the component first in
/// raster order wins.
[[nodiscard]] BinaryImage largest_component_mask(const BinaryImage& binary,
                                                 std::size_t min_area = 1);

/// largest_component_mask into `mask`, reusing `labeling`/`scratch` arenas.
/// Fills `labeling.components` exactly as label_components would, but
/// paints the mask straight from the runs: `labeling.labels` is never
/// touched, so it keeps whatever it held before the call.
void largest_component_mask_into(const BinaryImage& binary, std::size_t min_area,
                                 BinaryImage& mask, Labeling& labeling,
                                 LabelScratch& scratch);

/// Removes every component smaller than `min_area` (despeckle).
[[nodiscard]] BinaryImage remove_small_components(const BinaryImage& binary,
                                                  std::size_t min_area);

}  // namespace hdc::imaging
