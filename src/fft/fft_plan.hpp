#pragma once

/// \file fft_plan.hpp
/// Mixed-radix 1-D complex FFT plans.
///
/// This is the stand-in for cuFFT/FFTW in this reproduction (neither is
/// available offline). The plan precomputes the factorization chain,
/// twiddle tables and small-radix combine matrices so that repeated
/// execution (millions of Poisson-like solves in the Fock exchange
/// operator, paper Eq. 3 / Alg. 2) performs no trigonometry.
///
/// Conventions:
///   forward (sign = -1):  X[k] = sum_m x[m] exp(-2*pi*i*k*m/n)   (unnormalized)
///   inverse (sign = +1):  x[m] = sum_k X[k] exp(+2*pi*i*k*m/n)   (unnormalized)
/// so inverse(forward(x)) == n * x.

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace pwdft::fft {

/// A reusable plan for complex DFTs of a fixed length.
///
/// Supports any length: lengths factoring into {2,3,4,5} use fast
/// Cooley-Tukey passes, residual prime factors fall back to a naive O(p^2)
/// leaf (used only in tests; production grids are 5-smooth). The per-level
/// twiddle multiply is fused into the radix combine, and lengths 2/3/4/5
/// end the recursion in exact butterfly leaves.
///
/// There is one kernel, execute_lines(), and it transforms a *run* of
/// lines at once: its buffers are element-major and line-minor, so every
/// butterfly and combine loops over the run's lines (Fft3D feeds it up to
/// 16 adjacent grid lines). A run may be written in place. A line's bits
/// never depend on its run: each output element is the same sequence of
/// IEEE operations whether its line is transformed alone or among others
/// (tests/test_fft_oracle.cpp pins this by memcmp, and bounds every length
/// against an independent naive DFT). Execution is serial per call, so
/// results never depend on the engine width (docs/threading.md).
class FftPlan1D {
 public:
  explicit FftPlan1D(std::size_t n);

  std::size_t size() const { return n_; }

  /// Size (in Complex elements) of each of the `work` and `scratch`
  /// buffers of execute_lines() for a run of `count` lines.
  std::size_t workspace_size(std::size_t count) const { return n_ * count; }

  /// Computes out[k] = sum_m in[m*in_stride] * exp(sign*2*pi*i*k*m/n).
  /// `out` and `work` must each hold n elements and be distinct from `in`
  /// and from each other. Thread-safe (plan state is read-only). This is
  /// execute_lines() on a run of one line.
  void execute(const Complex* in, std::size_t in_stride, Complex* out, Complex* work,
               int sign) const;

  /// Transforms a run of `count` lines: element m of line v is read from
  /// in[m*stride + v*dist] and element k of its transform is written to
  /// out[k*ostride + v*odist]. The lines must not overlap. `out` may equal
  /// `in` with the same strides (in place); otherwise the two must not
  /// overlap. `work` and `scratch` each hold workspace_size(count)
  /// elements and overlap nothing else. Every line's result is bitwise
  /// that of execute() on the line alone. Thread-safe.
  void execute_lines(const Complex* in, std::size_t stride, std::size_t dist,
                     std::size_t count, Complex* out, std::size_t ostride, std::size_t odist,
                     Complex* work, Complex* scratch, int sign) const;

  /// True iff n factors entirely into {2,3,5} (grid-friendly size).
  static bool fast_size(std::size_t n);

 private:
  struct Level {
    std::size_t n = 0;       ///< transform length at this level
    std::size_t r = 0;       ///< radix split off (n = r * n1)
    std::size_t n1 = 0;      ///< child transform length
    bool leaf = false;       ///< butterfly (n <= 5) or naive DFT (prime n >= 7)
    std::size_t tw_off = 0;  ///< offset into tw_ (size r*n1, or n for naive leaves)
    std::size_t cb_off = 0;  ///< offset into comb_ (size r*r; unused for leaves)
  };

  /// Level `li` of execute_lines(): the children of a combine write `work`
  /// and use `scratch` as their own work.
  void run_level(std::size_t li, const Complex* in, std::size_t stride, std::size_t dist,
                 std::size_t count, Complex* out, std::size_t ostride, std::size_t odist,
                 Complex* work, Complex* scratch, int sign) const;

  std::size_t n_;
  std::vector<Level> levels_;
  std::vector<Complex> tw_;    ///< twiddles for sign=-1 (conjugated on use for +1)
  std::vector<Complex> comb_;  ///< per-level radix-r DFT matrices, sign=-1
};

}  // namespace pwdft::fft
