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
/// twiddle multiply is fused into the radix combine, written over raw
/// double lanes so the compiler vectorizes it (no intrinsics; portable),
/// and lengths 2/3/4/5 end the recursion in exact butterfly leaves.
/// tests/test_fft_oracle.cpp bounds every length against an independent
/// naive DFT. Execution is one fixed serial kernel per plan, so results
/// never depend on the engine width (docs/threading.md).
class FftPlan1D {
 public:
  explicit FftPlan1D(std::size_t n);

  std::size_t size() const { return n_; }

  /// Required workspace (in Complex elements) for execute().
  std::size_t workspace_size() const { return n_; }

  /// Computes out[k] = sum_m in[m*in_stride] * exp(sign*2*pi*i*k*m/n).
  /// `out` and `work` must each hold n elements and be distinct from `in`
  /// and from each other. Thread-safe (plan state is read-only).
  void execute(const Complex* in, std::size_t in_stride, Complex* out, Complex* work,
               int sign) const;

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

  void exec_level(std::size_t li, const Complex* in, std::size_t stride, Complex* out,
                  Complex* work, int sign) const;

  std::size_t n_;
  std::vector<Level> levels_;
  std::vector<Complex> tw_;    ///< twiddles for sign=-1 (conjugated on use for +1)
  std::vector<Complex> comb_;  ///< per-level radix-r DFT matrices, sign=-1
};

}  // namespace pwdft::fft
