#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/lanes.hpp"

namespace pwdft::linalg {

namespace {

std::size_t op_rows(char op, const CMatrix& m) { return op == 'N' ? m.rows() : m.cols(); }
std::size_t op_cols(char op, const CMatrix& m) { return op == 'N' ? m.cols() : m.rows(); }

Complex op_elem(char op, const CMatrix& m, std::size_t i, std::size_t j) {
  switch (op) {
    case 'N':
      return m(i, j);
    case 'T':
      return m(j, i);
    default:
      return std::conj(m(j, i));
  }
}

using lanes::V2;

/// Output tile of gemm('C','N'): kCnRows x kCnCols elements of C, each with
/// its own accumulator held in a register for the whole l loop.
constexpr std::size_t kCnRows = 2, kCnCols = 4;

/// The TI x TJ tile of C = alpha * A^H * B + beta * C whose first element is
/// (i0, j0). A is k-by-m and B k-by-n, columns contiguous, so C(i,j) is the
/// conjugated dot product of columns i and j: acc += conj(a_il) * b_lj for
/// l = 0..k-1 in order, starting from +0.
template <std::size_t TI, std::size_t TJ>
void cn_tile(Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta, CMatrix& c,
             std::size_t i0, std::size_t j0) {
  const std::size_t k = a.rows();
  const Complex* ap[TI];
  const Complex* bp[TJ];
  for (std::size_t ti = 0; ti < TI; ++ti) ap[ti] = a.col(i0 + ti);
  for (std::size_t tj = 0; tj < TJ; ++tj) bp[tj] = b.col(j0 + tj);
  V2 acc[TI][TJ];
  for (std::size_t ti = 0; ti < TI; ++ti)
    for (std::size_t tj = 0; tj < TJ; ++tj) acc[ti][tj] = lanes::splat(0.0);
  for (std::size_t l = 0; l < k; ++l) {
    lanes::Coef x[TI];  // conj(a_il) as the left factor: [ar, ar], [ai, -ai]
    for (std::size_t ti = 0; ti < TI; ++ti) {
      const V2 v = lanes::load(ap[ti] + l);
      x[ti] = {lanes::splat(v[0]), V2{v[1], -v[1]}};
    }
    for (std::size_t tj = 0; tj < TJ; ++tj) {
      const V2 y = lanes::load(bp[tj] + l);
      const V2 ys = lanes::swap(y);
      for (std::size_t ti = 0; ti < TI; ++ti) acc[ti][tj] += x[ti].re * y + x[ti].im * ys;
    }
  }
  for (std::size_t tj = 0; tj < TJ; ++tj) {
    for (std::size_t ti = 0; ti < TI; ++ti) {
      const Complex s{acc[ti][tj][0], acc[ti][tj][1]};
      Complex& cij = c(i0 + ti, j0 + tj);
      // beta == 0 must not read C: the destination may be a reused arena
      // block holding stale (possibly non-finite) values.
      cij = beta == Complex{0.0, 0.0} ? alpha * s : alpha * s + beta * cij;
    }
  }
}

/// One row block of TI outputs across every column of C.
template <std::size_t TI>
void cn_rows(Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta, CMatrix& c,
             std::size_t i0) {
  const std::size_t n = b.cols();
  std::size_t j0 = 0;
  for (; j0 + kCnCols <= n; j0 += kCnCols) cn_tile<TI, kCnCols>(alpha, a, b, beta, c, i0, j0);
  switch (n - j0) {
    case 3:
      cn_tile<TI, 3>(alpha, a, b, beta, c, i0, j0);
      break;
    case 2:
      cn_tile<TI, 2>(alpha, a, b, beta, c, i0, j0);
      break;
    case 1:
      cn_tile<TI, 1>(alpha, a, b, beta, c, i0, j0);
      break;
    default:
      break;
  }
}

/// C = alpha * A^H * B + beta * C in register tiles (cn_tile).
void gemm_cn(Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta, CMatrix& c) {
  static_assert(kCnRows == 2, "gemm_cn handles one odd row block of 1");
  const std::size_t m = a.cols();
  std::size_t i0 = 0;
  for (; i0 + kCnRows <= m; i0 += kCnRows) cn_rows<kCnRows>(alpha, a, b, beta, c, i0);
  if (i0 < m) cn_rows<1>(alpha, a, b, beta, c, i0);
}

/// update_run on TJ columns whose nl coefficients are all nonzero: per row,
/// each output is loaded, takes its nl updates in order, and is stored; each
/// source element is loaded once for all TJ columns.
template <std::size_t TJ, bool Sub>
void run_kernel(std::size_t m, const Complex* const* src, std::size_t nl, const lanes::Coef* f,
                Complex* const* dst) {
  for (std::size_t i = 0; i < m; ++i) {
    V2 acc[TJ];
    for (std::size_t t = 0; t < TJ; ++t) acc[t] = lanes::load(dst[t] + i);
    for (std::size_t l = 0; l < nl; ++l) {
      const V2 x = lanes::load(src[l] + i);
      const V2 xs = lanes::swap(x);
      for (std::size_t t = 0; t < TJ; ++t) {
        const V2 p = f[l * TJ + t].re * x + f[l * TJ + t].im * xs;
        acc[t] = Sub ? acc[t] - p : acc[t] + p;
      }
    }
    for (std::size_t t = 0; t < TJ; ++t) lanes::store(dst[t] + i, acc[t]);
  }
}

template <bool Sub>
void run(std::size_t tj, std::size_t m, const Complex* const* src, std::size_t nl,
         const lanes::Coef* f, Complex* const* dst) {
  static_assert(lanes::kCols == 4, "run dispatches 1..4 columns");
  switch (tj) {
    case 1:
      return run_kernel<1, Sub>(m, src, nl, f, dst);
    case 2:
      return run_kernel<2, Sub>(m, src, nl, f, dst);
    case 3:
      return run_kernel<3, Sub>(m, src, nl, f, dst);
    default:
      return run_kernel<4, Sub>(m, src, nl, f, dst);
  }
}

/// C = alpha * A * B + beta * C with A m-by-k, B k-by-n. Column-major
/// friendly: C's column j is a linear combination of A's columns, taken in
/// runs of kRun columns of A for kCols columns of C at a time.
void gemm_nn(Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta, CMatrix& c) {
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  for (std::size_t j = 0; j < n; ++j) {
    Complex* cj = c.col(j);
    if (beta == Complex{0.0, 0.0}) {
      for (std::size_t i = 0; i < m; ++i) cj[i] = Complex{0.0, 0.0};
    } else if (beta != Complex{1.0, 0.0}) {
      for (std::size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
  const Complex* src[lanes::kRun];
  Complex* dst[lanes::kCols];
  Complex f[lanes::kRun * lanes::kCols];
  for (std::size_t j0 = 0; j0 < n; j0 += lanes::kCols) {
    const std::size_t tj = std::min(lanes::kCols, n - j0);
    for (std::size_t t = 0; t < tj; ++t) dst[t] = c.col(j0 + t);
    for (std::size_t l0 = 0; l0 < k; l0 += lanes::kRun) {
      const std::size_t nl = std::min(lanes::kRun, k - l0);
      for (std::size_t l = 0; l < nl; ++l) {
        src[l] = a.col(l0 + l);
        for (std::size_t t = 0; t < tj; ++t) f[l * tj + t] = alpha * b(l0 + l, j0 + t);
      }
      lanes::update_run(m, src, nl, f, dst, tj, /*subtract=*/false);
    }
  }
}

}  // namespace

void lanes::update_run(std::size_t m, const Complex* const* src, std::size_t nl,
                       const Complex* f, Complex* const* dst, std::size_t tj, bool subtract) {
  const auto go = subtract ? run<true> : run<false>;
  Coef cf[kRun * kCols];
  std::size_t nonzero = 0;
  for (std::size_t e = 0; e < nl * tj; ++e) {
    cf[e] = coef(f[e]);
    if (f[e] != Complex{0.0, 0.0}) ++nonzero;
  }
  if (nonzero == nl * tj) return go(tj, m, src, nl, cf, dst);
  if (nonzero == 0) return;
  // Mixed zero pattern: each column takes its own nonzero coefficients.
  for (std::size_t t = 0; t < tj; ++t) {
    const Complex* s[kRun];
    Coef g[kRun];
    std::size_t n = 0;
    for (std::size_t l = 0; l < nl; ++l) {
      if (f[l * tj + t] == Complex{0.0, 0.0}) continue;
      s[n] = src[l];
      g[n++] = cf[l * tj + t];
    }
    if (n > 0) go(1, m, s, n, g, dst + t);
  }
}

void gemm(char opa, char opb, Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta,
          CMatrix& c) {
  PWDFT_CHECK(opa == 'N' || opa == 'T' || opa == 'C', "bad opa");
  PWDFT_CHECK(opb == 'N' || opb == 'T' || opb == 'C', "bad opb");
  const std::size_t m = op_rows(opa, a);
  const std::size_t n = op_cols(opb, b);
  const std::size_t k = op_cols(opa, a);
  PWDFT_CHECK(op_rows(opb, b) == k, "gemm: inner dimensions mismatch");
  PWDFT_CHECK(c.rows() == m && c.cols() == n, "gemm: C has wrong shape");

  if (opa == 'C' && opb == 'N') {
    gemm_cn(alpha, a, b, beta, c);
    return;
  }
  if (opa == 'N' && opb == 'N') {
    gemm_nn(alpha, a, b, beta, c);
    return;
  }
  // Generic fallback for the remaining op combinations (cold paths).
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      Complex acc{0.0, 0.0};
      for (std::size_t l = 0; l < k; ++l) acc += op_elem(opa, a, i, l) * op_elem(opb, b, l, j);
      c(i, j) = alpha * acc + beta * c(i, j);
    }
  }
}

CMatrix overlap(const CMatrix& a, const CMatrix& b) {
  CMatrix s;
  overlap_into(a, b, s);
  return s;
}

void overlap_into(const CMatrix& a, const CMatrix& b, CMatrix& s) {
  PWDFT_CHECK(a.rows() == b.rows(), "overlap: row mismatch");
  s.resize(a.cols(), b.cols());
  gemm('C', 'N', Complex{1.0, 0.0}, a, b, Complex{0.0, 0.0}, s);
}

void axpy(Complex alpha, std::span<const Complex> x, std::span<Complex> y) {
  PWDFT_ASSERT(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

Complex dotc(std::span<const Complex> x, std::span<const Complex> y) {
  PWDFT_ASSERT(x.size() == y.size());
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < x.size(); ++i) acc += std::conj(x[i]) * y[i];
  return acc;
}

double nrm2(std::span<const Complex> x) {
  double acc = 0.0;
  for (const Complex& v : x) acc += std::norm(v);
  return std::sqrt(acc);
}

void scal(Complex alpha, std::span<Complex> x) {
  for (Complex& v : x) v *= alpha;
}

double frobenius_norm(const CMatrix& a) {
  return nrm2(std::span<const Complex>(a.data(), a.size()));
}

}  // namespace pwdft::linalg
