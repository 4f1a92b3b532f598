#pragma once

/// \file lanes.hpp
/// One complex double held as a two-lane vector [re, im], for the tiled
/// kernels of blas.cpp, cholesky.cpp and heig.cpp. The complex product is
/// written out in real arithmetic equal, lane by lane, to GCC's inline
/// std::complex multiply in the one-element reference loops
/// (tests/test_linalg.cpp):
///   f * x = (fr*xr - fi*xi, fr*xi + fi*xr).
/// Only the order-free rewrites of IEEE arithmetic are used: a*b = b*a,
/// a+b = b+a, a - b = a + (-b) and (-a)*b = -(a*b). So every element has
/// the reference loops' bits as long as the build does not contract a*b+c
/// into an FMA, reassociate, or use limited-range complex arithmetic
/// (docs/threading.md, "Dense linear algebra").

#include <cstddef>
#include <cstring>

#include "common/types.hpp"

namespace pwdft::linalg::lanes {

/// GCC/Clang generic vector: two doubles, one SSE2 register on x86-64.
using V2 = double __attribute__((vector_size(16)));

/// Loads and stores go through the raw double view of a complex array
/// ([complex.numbers]: std::complex<double> is laid out as double[2]).
inline V2 load(const Complex* p) {
  V2 v;
  std::memcpy(&v, reinterpret_cast<const double*>(p), sizeof v);
  return v;
}

inline void store(Complex* p, V2 v) { std::memcpy(reinterpret_cast<double*>(p), &v, sizeof v); }

inline V2 swap(V2 v) { return V2{v[1], v[0]}; }

/// Both lanes set to x.
inline V2 splat(double x) { return V2{x, x}; }

/// conj(x): the imaginary lane negated.
inline V2 conj(V2 v) { return V2{v[0], -v[1]}; }

/// A left factor f prepared for f * x: lanes [fr, fr] and [-fi, fi].
struct Coef {
  V2 re, im;
};

inline Coef coef(Complex f) { return {splat(f.real()), V2{-f.imag(), f.imag()}}; }

/// f * x: [fr*xr + (-fi)*xi, fr*xi + fi*xr], the bits of (fr*xr - fi*xi,
/// fr*xi + fi*xr).
inline V2 mul(const Coef& f, V2 x) { return f.re * x + f.im * swap(x); }

/// Longest run of coefficients whose updates an output element takes in
/// registers, and the most output columns sharing one source-column load.
inline constexpr std::size_t kRun = 4;
inline constexpr std::size_t kCols = 4;

/// dst[t][i] += f[l*tj + t] * src[l][i] (-= when `subtract`) for
/// l = 0..nl-1 in order, i < m and t < tj, skipping every f == 0: the
/// per-element operations of `dst_t[i] += f * src_l[i]` looped over l, with
/// each element loaded once per run. nl <= kRun, tj <= kCols. dst columns
/// must not overlap src columns. Defined in blas.cpp (gemm 'N','N'; TRSM).
void update_run(std::size_t m, const Complex* const* src, std::size_t nl, const Complex* f,
                Complex* const* dst, std::size_t tj, bool subtract);

}  // namespace pwdft::linalg::lanes
