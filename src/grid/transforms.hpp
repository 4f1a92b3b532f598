#pragma once

/// \file transforms.hpp
/// Fused sphere <-> grid transforms.
///
/// A planewave sphere occupies a small corner of its FFT grid (about pi/6 of
/// the wavefunction grid and 1/8 of that on the 2x dense grid), so after
/// scattering coefficients most x-lines of the grid are identically zero and
/// their axis-0 FFT pass is a no-op. Conversely, before gathering only the
/// z-lines that contain sphere points need their final axis-2 pass. The
/// middle (axis-1) pass is masked too, in both directions:
///  - inverse: a z-plane with no active x-line holds only zeros after the
///    masked axis-0 pass, so every axis-1 line in it transforms to zero and
///    is skipped exactly (y_lines_inv);
///  - forward: the masked axis-2 pass only reads columns whose x appears in
///    some active z-line, so axis-1 lines at other x are never consumed and
///    are skipped (y_lines_fwd).
/// SphereMap precomputes all four line sets once; sphere_to_grid /
/// grid_to_sphere then run the scatter (or gather) and the partial-pass
/// batched FFT as one call, with results bit-identical to the two-step
/// scatter + full-FFT path at every thread count.
///
/// Dispatch: each fused call is a single replay of a cached Fft3D graph —
/// the per-batch scatter (gather) runs as a prologue (epilogue) node of
/// that batch member's FFT pass chain, so the whole conversion costs one
/// pool wake and batch members pipeline through scatter and passes
/// independently.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fft/fft3d.hpp"
#include "linalg/matrix.hpp"

namespace pwdft::grid {

/// Sphere -> grid index map plus the FFT line masks for partial passes.
struct SphereMap {
  SphereMap() = default;
  /// `map[i]` is the linear grid index of sphere point i on a grid of the
  /// given dims (layout x fastest: i = x + n0*(y + n1*z)).
  SphereMap(std::vector<std::size_t> map_in, const std::array<std::size_t, 3>& dims_in);

  std::vector<std::size_t> map;
  std::array<std::size_t, 3> dims{0, 0, 0};
  std::vector<std::uint32_t> x_lines;  ///< sorted active axis-0 lines (l = y + n1*z)
  std::vector<std::uint32_t> z_lines;  ///< sorted active axis-2 lines (l = x + n0*y)
  /// Axis-1 lines (l = x + n0*z) needed by the forward pass: all z for every
  /// x that appears in z_lines.
  std::vector<std::uint32_t> y_lines_fwd;
  /// Axis-1 lines (l = x + n0*z) with nonzero input in the inverse pass: all
  /// x for every z that appears in x_lines.
  std::vector<std::uint32_t> y_lines_inv;

  std::size_t grid_size() const { return dims[0] * dims[1] * dims[2]; }
  /// Fraction of x-lines that carry sphere support (instrumentation).
  double x_fill() const;
  /// Fraction of axis-1 lines the forward pass runs (instrumentation).
  double y_fill_fwd() const;
};

/// Per-batch sphere-scatter hook, public so whole-operator pipelines
/// (fft::Fft3D::run_pipeline) can mount the scatter of column b as an
/// interior/prologue stage of their own fused graphs: `run(user, b)` with
/// `user` pointing at a ScatterHook scatters column b of `coeffs` into
/// column b of `grids` (zero-filling off-sphere points). The struct is the
/// per-call stage state; `&ScatterHook::run` is the cache-keyed identity.
struct ScatterHook {
  const std::size_t* map = nullptr;  ///< sphere -> grid index map
  std::size_t ng = 0;                ///< sphere points per column
  const Complex* coeffs = nullptr;   ///< column-major, column stride coeff_stride
  std::size_t coeff_stride = 0;
  Complex* grids = nullptr;          ///< column-major, column stride nw
  std::size_t nw = 0;                ///< grid points per column
  static void run(void* user, std::size_t b);
};

/// Per-batch sphere-gather hook (the forward-side counterpart):
/// `run(user, b)` gathers column b of `grids` into column b of `coeffs`,
/// scaling by `scale`.
struct GatherHook {
  const std::size_t* map = nullptr;
  std::size_t ng = 0;
  const Complex* grids = nullptr;
  std::size_t nw = 0;
  double scale = 1.0;
  Complex* coeffs = nullptr;
  std::size_t coeff_stride = 0;
  static void run(void* user, std::size_t b);
};

/// Pipeline pass stages over `sm`'s masks: the inverse (sphere -> grid)
/// passes expect freshly scattered data at `grids` (off-sphere x-lines
/// zero); the forward (grid -> sphere) passes complete only the z-lines
/// that a subsequent gather reads. Same masks — and bit-identical results —
/// as inverse_many_active / forward_many_active.
fft::Fft3D::Stage inverse_passes_stage(const SphereMap& sm, Complex* grids);
fft::Fft3D::Stage forward_passes_stage(const SphereMap& sm, Complex* grids);

/// grid <- inverse_fft(scatter(coeffs)): one fused call. `grid` is fully
/// overwritten. Bit-identical to GSphere::scatter + Fft3D::inverse.
void sphere_to_grid(const fft::Fft3D& fft, const SphereMap& sm, std::span<const Complex> coeffs,
                    std::span<Complex> grid);

/// coeffs <- gather(forward_fft(grid)) * scale: one fused call. `grid` is
/// clobbered; off-sphere z-lines hold unspecified values afterwards. The
/// gathered coefficients are bit-identical to Fft3D::forward +
/// GSphere::gather.
void grid_to_sphere(const fft::Fft3D& fft, const SphereMap& sm, std::span<Complex> grid,
                    double scale, std::span<Complex> coeffs);

/// Column-batched variants: column j of `coeffs` (sphere layout) maps to
/// column j of `grids` (grid layout); all columns are transformed as one
/// batch on the exec engine.
void sphere_to_grid_many(const fft::Fft3D& fft, const SphereMap& sm, const CMatrix& coeffs,
                         CMatrix& grids);
void grid_to_sphere_many(const fft::Fft3D& fft, const SphereMap& sm, CMatrix& grids, double scale,
                         CMatrix& coeffs);

}  // namespace pwdft::grid
