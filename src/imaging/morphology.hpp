// Binary morphology (square structuring element). Used to clean silhouettes
// before contour tracing: opening removes salt noise, closing bridges small
// gaps between limb segments.
//
// Inputs must follow the BinaryImage convention (kBackground/kForeground
// only; a pixel is foreground when its high bit is set). Each call packs its
// byte input once into a 1-bit-per-pixel BitRaster, runs every separable
// pass on 64-pixel words (horizontal: shift with cross-word carry, then
// AND/OR; vertical: AND/OR of the window's word rows) and unpacks once.
// BinaryImage stays the byte interchange format between pipeline stages.
#pragma once

#include "imaging/bit_raster.hpp"
#include "imaging/image.hpp"

namespace hdc::imaging {

/// Erosion with a (2r+1)x(2r+1) square element; pixels outside the raster
/// count as background.
[[nodiscard]] BinaryImage erode(const BinaryImage& src, int radius = 1);

/// Dilation with a (2r+1)x(2r+1) square element.
[[nodiscard]] BinaryImage dilate(const BinaryImage& src, int radius = 1);

/// Opening: erode then dilate (removes specks smaller than the element).
[[nodiscard]] BinaryImage open(const BinaryImage& src, int radius = 1);

/// Closing: dilate then erode (fills holes/gaps smaller than the element).
[[nodiscard]] BinaryImage close(const BinaryImage& src, int radius = 1);

// Buffer-reusing overloads for the batch pipeline; bit-identical to the
// allocating versions above, which delegate here. The scratch rasters hold
// the packed passes and must be distinct objects; `out` may alias `src`,
// which is read once, when it is packed.

/// erode into `out`; `scratch` holds the packed raster.
void erode_into(const BinaryImage& src, int radius, BinaryImage& out,
                BitRaster& scratch);

/// dilate into `out`; `scratch` holds the packed raster.
void dilate_into(const BinaryImage& src, int radius, BinaryImage& out,
                 BitRaster& scratch);

/// open into `out` (erode then dilate).
void open_into(const BinaryImage& src, int radius, BinaryImage& out,
               BitRaster& scratch_a, BitRaster& scratch_b);

/// close into `out` (dilate then erode).
void close_into(const BinaryImage& src, int radius, BinaryImage& out,
                BitRaster& scratch_a, BitRaster& scratch_b);

/// Number of foreground pixels.
[[nodiscard]] std::size_t foreground_area(const BinaryImage& src);

}  // namespace hdc::imaging
