#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "linalg/lanes.hpp"

namespace pwdft::linalg {

void potrf_lower(CMatrix& a) {
  PWDFT_CHECK(a.rows() == a.cols(), "potrf: matrix must be square");
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j).real();
    for (std::size_t k = 0; k < j; ++k) diag -= std::norm(a(j, k));
    PWDFT_CHECK(diag > 0.0, "potrf: matrix not positive definite at column " << j);
    const double ljj = std::sqrt(diag);
    a(j, j) = Complex{ljj, 0.0};
    for (std::size_t i = j + 1; i < n; ++i) {
      Complex v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * std::conj(a(j, k));
      a(i, j) = v / ljj;
    }
    for (std::size_t i = 0; i < j; ++i) a(i, j) = Complex{0.0, 0.0};
  }
}

void trsm_right_lower_conj(CMatrix& x, const CMatrix& l) {
  PWDFT_CHECK(l.rows() == l.cols() && l.rows() == x.cols(), "trsm: shape mismatch");
  const std::size_t m = x.rows(), n = x.cols();
  // Solve Q * L^H = X column-by-column:  q_j = (x_j - sum_{k<j} q_k conj(L(j,k))) / L(j,j),
  // the sum taken in ascending k. Blocks of kCols columns share the loads of
  // every finished column k < j0; inside a block the columns go one by one.
  const Complex* src[lanes::kRun];
  Complex* dst[lanes::kCols];
  Complex f[lanes::kRun * lanes::kCols];
  for (std::size_t j0 = 0; j0 < n; j0 += lanes::kCols) {
    const std::size_t tj = std::min(lanes::kCols, n - j0);
    for (std::size_t t = 0; t < tj; ++t) dst[t] = x.col(j0 + t);
    for (std::size_t k0 = 0; k0 < j0; k0 += lanes::kRun) {
      const std::size_t nk = std::min(lanes::kRun, j0 - k0);
      for (std::size_t kk = 0; kk < nk; ++kk) {
        src[kk] = x.col(k0 + kk);
        for (std::size_t t = 0; t < tj; ++t) f[kk * tj + t] = std::conj(l(j0 + t, k0 + kk));
      }
      lanes::update_run(m, src, nk, f, dst, tj, /*subtract=*/true);
    }
    static_assert(lanes::kCols - 1 <= lanes::kRun, "a block's own columns fit one run");
    for (std::size_t j = j0; j < j0 + tj; ++j) {
      for (std::size_t k = j0; k < j; ++k) {
        src[k - j0] = x.col(k);
        f[k - j0] = std::conj(l(j, k));
      }
      Complex* xj = x.col(j);
      if (j > j0) lanes::update_run(m, src, j - j0, f, &xj, 1, /*subtract=*/true);
      const Complex d = l(j, j);
      PWDFT_CHECK(std::abs(d) > 0.0, "trsm: singular triangular factor");
      const lanes::Coef inv = lanes::coef(Complex{1.0, 0.0} / d);
      // xj[i] *= inv: (xr*ir - xi*ii, xr*ii + xi*ir).
      for (std::size_t i = 0; i < m; ++i) lanes::store(xj + i, lanes::mul(inv, lanes::load(xj + i)));
    }
  }
}

void solve_lower(const CMatrix& l, Complex* b) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    Complex v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= l(i, k) * b[k];
    b[i] = v / l(i, i);
  }
}

void solve_lower_conj(const CMatrix& l, Complex* b) {
  const std::size_t n = l.rows();
  for (std::size_t ii = n; ii-- > 0;) {
    Complex v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= std::conj(l(k, ii)) * b[k];
    b[ii] = v / std::conj(l(ii, ii));
  }
}

}  // namespace pwdft::linalg
