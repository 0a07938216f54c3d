#include "imaging/components.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace hdc::imaging {

namespace {

/// The next foreground pixel at or after `x` in a {0, 255} row, or `width`
/// when the rest of the row is background. memchr is the branch-light
/// (SIMD in libc) row scan — silhouette frames are mostly background, so
/// skipping runs wholesale is where the time goes. Bytes other than 255
/// are background.
inline int next_foreground(const std::uint8_t* row, int x, int width) {
  const void* hit = std::memchr(row + x, kForeground,
                                static_cast<std::size_t>(width - x));
  if (hit == nullptr) return width;
  return static_cast<int>(static_cast<const std::uint8_t*>(hit) - row);
}

/// The first pixel at or after `x` that is not foreground, or `width`.
/// Eight pixels per step: a word of all-0xFF bytes is eight foreground
/// pixels; otherwise the complement's lowest set byte (in memory order) is
/// the run's end.
inline int run_end(const std::uint8_t* row, int x, int width) {
  for (; x + 8 <= width; x += 8) {
    std::uint64_t word;
    std::memcpy(&word, row + x, sizeof word);
    const std::uint64_t miss = ~word;
    if (miss != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return x + (std::countr_zero(miss) >> 3);
      } else {
        return x + (std::countl_zero(miss) >> 3);
      }
    }
  }
  while (x < width && row[x] == kForeground) ++x;
  return x;
}

/// Union-find root with path halving.
inline std::int32_t find_root(std::vector<std::int32_t>& parent, std::int32_t x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

/// Union by smaller index, so a set's root is always its first run in
/// raster order.
inline void unite(std::vector<std::int32_t>& parent, std::int32_t a, std::int32_t b) {
  a = find_root(parent, a);
  b = find_root(parent, b);
  if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
}

/// The labelling core. Extracts each row's foreground runs into
/// scratch.runs and unites every run with the previous row's runs that
/// overlap [x0-1, x1+1] (8-connectivity). Then numbers the components in
/// the order of their first run — the raster order of their first pixel —
/// into scratch.run_label and gathers `components`' statistics per run.
void label_runs(const BinaryImage& binary, std::vector<Component>& components,
                LabelScratch& scratch) {
  std::vector<ForegroundRun>& runs = scratch.runs;
  std::vector<std::int32_t>& parent = scratch.run_label;
  runs.clear();
  parent.clear();
  const int w = binary.width();
  const int h = binary.height();
  const std::uint8_t* data = binary.data().data();
  const auto row_size = static_cast<std::size_t>(w);
  std::size_t prev_begin = 0;  // previous row's runs: [prev_begin, prev_end)
  std::size_t prev_end = 0;
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* row = data + static_cast<std::size_t>(y) * row_size;
    const std::size_t row_begin = runs.size();
    for (int x = next_foreground(row, 0, w); x < w;) {
      const int end = run_end(row, x + 1, w);
      const auto index = static_cast<std::int32_t>(runs.size());
      runs.push_back(ForegroundRun{x, end - 1, y});
      parent.push_back(index);
      // Previous-row runs ending left of x-1 touch neither this run nor
      // any later one in the row.
      while (prev_begin < prev_end && runs[prev_begin].x1 + 1 < x) ++prev_begin;
      for (std::size_t p = prev_begin; p < prev_end && runs[p].x0 <= end; ++p) {
        unite(parent, index, static_cast<std::int32_t>(p));
      }
      x = end < w ? next_foreground(row, end + 1, w) : w;
    }
    prev_begin = row_begin;
    prev_end = runs.size();
  }

  // Every run's parent is an earlier run of its set, or itself for the
  // set's first run, so one forward pass overwrites each parent with the
  // run's label: a first run takes the next label, any other run its
  // (already numbered) parent's.
  std::vector<std::int32_t>& run_label = parent;
  std::vector<std::int64_t>& sum_x = scratch.sum_x;
  std::vector<std::int64_t>& sum_y = scratch.sum_y;
  components.clear();
  sum_x.clear();
  sum_y.clear();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const ForegroundRun& run = runs[i];
    const std::int32_t up = parent[i];
    std::int32_t label;
    if (static_cast<std::size_t>(up) == i) {
      label = static_cast<std::int32_t>(components.size()) + 1;
      components.push_back(Component{label, 0, run.x0, run.y, run.x1, run.y, {}});
      sum_x.push_back(0);
      sum_y.push_back(0);
    } else {
      label = run_label[static_cast<std::size_t>(up)];
    }
    run_label[i] = label;
    const auto slot = static_cast<std::size_t>(label - 1);
    Component& comp = components[slot];
    const std::int64_t length = run.x1 - run.x0 + 1;
    comp.area += static_cast<std::size_t>(length);
    comp.min_x = std::min(comp.min_x, run.x0);
    comp.max_x = std::max(comp.max_x, run.x1);
    comp.max_y = run.y;  // runs arrive in row order
    // x0 + ... + x1 = (x0 + x1) * length / 2; the product is always even.
    sum_x[slot] += (static_cast<std::int64_t>(run.x0) + run.x1) * length / 2;
    sum_y[slot] += static_cast<std::int64_t>(run.y) * length;
  }
  // The integer sums are exactly the per-pixel double sums, so the
  // centroids match a per-pixel accumulation bit for bit.
  for (std::size_t i = 0; i < components.size(); ++i) {
    Component& comp = components[i];
    comp.centroid.x = static_cast<double>(sum_x[i]) / static_cast<double>(comp.area);
    comp.centroid.y = static_cast<double>(sum_y[i]) / static_cast<double>(comp.area);
  }
}

/// Sets to kForeground, in the cleared raster `out`, every run whose
/// component label passes `keep`.
template <typename Keep>
void paint_runs(const LabelScratch& scratch, Keep keep, BinaryImage& out) {
  std::uint8_t* data = out.data().data();
  const auto row_size = static_cast<std::size_t>(out.width());
  for (std::size_t i = 0; i < scratch.runs.size(); ++i) {
    if (!keep(scratch.run_label[i])) continue;
    const ForegroundRun& run = scratch.runs[i];
    std::memset(data + static_cast<std::size_t>(run.y) * row_size +
                    static_cast<std::size_t>(run.x0),
                kForeground, static_cast<std::size_t>(run.x1 - run.x0 + 1));
  }
}

}  // namespace

void label_components_into(const BinaryImage& binary, Labeling& out,
                           LabelScratch& scratch) {
  label_runs(binary, out.components, scratch);
  out.labels.reset(binary.width(), binary.height(), 0);
  std::int32_t* data = out.labels.data().data();
  const auto row_size = static_cast<std::size_t>(binary.width());
  for (std::size_t i = 0; i < scratch.runs.size(); ++i) {
    const ForegroundRun& run = scratch.runs[i];
    std::fill_n(data + static_cast<std::size_t>(run.y) * row_size +
                    static_cast<std::size_t>(run.x0),
                run.x1 - run.x0 + 1, scratch.run_label[i]);
  }
}

Labeling label_components(const BinaryImage& binary) {
  Labeling result;
  LabelScratch scratch;
  label_components_into(binary, result, scratch);
  return result;
}

void largest_component_mask_into(const BinaryImage& binary, std::size_t min_area,
                                 BinaryImage& mask, Labeling& labeling,
                                 LabelScratch& scratch) {
  label_runs(binary, labeling.components, scratch);
  mask.reset(binary.width(), binary.height(), kBackground);
  const Component* largest = nullptr;
  for (const Component& comp : labeling.components) {
    if (comp.area >= min_area && (largest == nullptr || comp.area > largest->area)) {
      largest = &comp;
    }
  }
  if (largest == nullptr) return;
  const std::int32_t target = largest->label;
  paint_runs(scratch, [target](std::int32_t label) { return label == target; }, mask);
}

BinaryImage largest_component_mask(const BinaryImage& binary, std::size_t min_area) {
  BinaryImage mask;
  Labeling labeling;
  LabelScratch scratch;
  largest_component_mask_into(binary, min_area, mask, labeling, scratch);
  return mask;
}

BinaryImage remove_small_components(const BinaryImage& binary, std::size_t min_area) {
  std::vector<Component> components;
  LabelScratch scratch;
  label_runs(binary, components, scratch);
  BinaryImage out(binary.width(), binary.height(), kBackground);
  paint_runs(
      scratch,
      [&components, min_area](std::int32_t label) {
        return components[static_cast<std::size_t>(label - 1)].area >= min_area;
      },
      out);
  return out;
}

}  // namespace hdc::imaging
