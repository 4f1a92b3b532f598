#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/random.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/heig.hpp"
#include "linalg/lsq.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

CMatrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  CMatrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.complex_normal();
  return m;
}

CMatrix random_hpd(std::size_t n, std::uint64_t seed) {
  CMatrix a = random_matrix(n + 4, n, seed);
  CMatrix g = linalg::overlap(a, a);
  for (std::size_t i = 0; i < n; ++i) g(i, i) += 0.1;
  return g;
}

Complex op_elem(char op, const CMatrix& m, std::size_t i, std::size_t j) {
  if (op == 'N') return m(i, j);
  if (op == 'T') return m(j, i);
  return std::conj(m(j, i));
}

void check_gemm(char opa, char opb, std::size_t m, std::size_t n, std::size_t k) {
  const CMatrix a = (opa == 'N') ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
  const CMatrix b = (opb == 'N') ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
  CMatrix c = random_matrix(m, n, 3);
  const CMatrix c0 = c;
  const Complex alpha{1.3, -0.2}, beta{0.4, 0.9};
  linalg::gemm(opa, opb, alpha, a, b, beta, c);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) {
      Complex acc{0, 0};
      for (std::size_t l = 0; l < k; ++l) acc += op_elem(opa, a, i, l) * op_elem(opb, b, l, j);
      const Complex expect = alpha * acc + beta * c0(i, j);
      EXPECT_NEAR(std::abs(c(i, j) - expect), 0.0, 1e-10 * (1.0 + std::abs(expect)))
          << opa << opb << " (" << i << "," << j << ")";
    }
  }
}

struct GemmCase {
  char opa, opb;
  std::size_t m, n, k;
};

class GemmOps : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmOps, MatchesNaiveTripleLoop) {
  const auto p = GetParam();
  check_gemm(p.opa, p.opb, p.m, p.n, p.k);
}

INSTANTIATE_TEST_SUITE_P(AllOps, GemmOps,
                         ::testing::Values(GemmCase{'N', 'N', 5, 7, 4}, GemmCase{'C', 'N', 6, 3, 9},
                                           GemmCase{'N', 'C', 4, 4, 5}, GemmCase{'T', 'N', 3, 8, 6},
                                           GemmCase{'C', 'C', 5, 5, 5}, GemmCase{'N', 'N', 1, 1, 1},
                                           GemmCase{'C', 'N', 16, 16, 64},
                                           GemmCase{'N', 'T', 2, 9, 3}));

TEST(Blas, OverlapIsConjugateTransposeSymmetric) {
  CMatrix x = random_matrix(40, 6, 11);
  CMatrix s = linalg::overlap(x, x);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 6; ++j)
      EXPECT_NEAR(std::abs(s(i, j) - std::conj(s(j, i))), 0.0, 1e-12);
  // Diagonal = squared column norms.
  for (std::size_t j = 0; j < 6; ++j) {
    const double n2 = linalg::nrm2({x.col(j), x.rows()});
    EXPECT_NEAR(s(j, j).real(), n2 * n2, 1e-10);
  }
}

TEST(Blas, Level1Operations) {
  Rng rng(3);
  std::vector<Complex> x(17), y(17);
  for (auto& v : x) v = rng.complex_normal();
  for (auto& v : y) v = rng.complex_normal();
  const auto y0 = y;
  const Complex a{0.3, -1.2};
  linalg::axpy(a, x, y);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - (y0[i] + a * x[i])), 0.0, 1e-13);

  Complex d{0, 0};
  for (std::size_t i = 0; i < x.size(); ++i) d += std::conj(x[i]) * y[i];
  EXPECT_NEAR(std::abs(linalg::dotc(x, y) - d), 0.0, 1e-12);

  linalg::scal(Complex{2.0, 0.0}, y);
  EXPECT_NEAR(std::abs(y[3] - 2.0 * (y0[3] + a * x[3])), 0.0, 1e-12);
}

TEST(Cholesky, ReconstructsMatrix) {
  const std::size_t n = 12;
  CMatrix a = random_hpd(n, 21);
  CMatrix l = a;
  linalg::potrf_lower(l);
  // Check L L^H == A and the strict upper triangle is zero.
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < j; ++i) EXPECT_EQ(l(i, j), (Complex{0, 0}));
  CMatrix rec(n, n);
  linalg::gemm('N', 'C', Complex{1, 0}, l, l, Complex{0, 0}, rec);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(rec(i, j) - a(i, j)), 0.0, 1e-9);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  CMatrix a(3, 3);
  a(0, 0) = Complex{1, 0};
  a(1, 1) = Complex{-2, 0};
  a(2, 2) = Complex{1, 0};
  EXPECT_THROW(linalg::potrf_lower(a), Error);
}

TEST(Cholesky, TrsmOrthonormalizes) {
  CMatrix x = random_matrix(50, 8, 31);
  CMatrix s = linalg::overlap(x, x);
  linalg::potrf_lower(s);
  linalg::trsm_right_lower_conj(x, s);
  CMatrix q = linalg::overlap(x, x);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j)
      EXPECT_NEAR(std::abs(q(i, j) - (i == j ? Complex{1, 0} : Complex{0, 0})), 0.0, 1e-10);
}

TEST(Cholesky, TriangularSolves) {
  const std::size_t n = 9;
  CMatrix a = random_hpd(n, 41);
  CMatrix l = a;
  linalg::potrf_lower(l);
  Rng rng(5);
  std::vector<Complex> b(n), x(n);
  for (auto& v : b) v = rng.complex_normal();
  x = b;
  linalg::solve_lower(l, x.data());
  // L x' == b
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc{0, 0};
    for (std::size_t k2 = 0; k2 <= i; ++k2) acc += l(i, k2) * x[k2];
    EXPECT_NEAR(std::abs(acc - b[i]), 0.0, 1e-10);
  }
  auto y = b;
  linalg::solve_lower_conj(l, y.data());
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc{0, 0};
    for (std::size_t k2 = i; k2 < n; ++k2) acc += std::conj(l(k2, i)) * y[k2];
    EXPECT_NEAR(std::abs(acc - b[i]), 0.0, 1e-10);
  }
}

class HeigSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HeigSizes, DiagonalizesRandomHermitian) {
  const std::size_t n = GetParam();
  const CMatrix raw = random_matrix(n, n, 50 + n);
  // Hermitize into a fresh matrix (in place would mix updated entries).
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) a(i, j) = 0.5 * (raw(i, j) + std::conj(raw(j, i)));
  std::vector<double> ev;
  CMatrix v;
  linalg::heig(a, ev, v);

  // Sorted ascending.
  for (std::size_t i = 1; i < n; ++i) EXPECT_LE(ev[i - 1], ev[i] + 1e-12);
  // Unitary eigenvectors.
  CMatrix vv = linalg::overlap(v, v);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(std::abs(vv(i, j) - (i == j ? Complex{1, 0} : Complex{0, 0})), 0.0, 1e-9);
  // A V == V diag(ev).
  CMatrix av(n, n);
  linalg::gemm('N', 'N', Complex{1, 0}, a, v, Complex{0, 0}, av);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(av(i, j) - ev[j] * v(i, j)), 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeigSizes, ::testing::Values(1, 2, 3, 5, 8, 13, 24, 48));

TEST(Heig, HandlesDegenerateSpectrum) {
  const std::size_t n = 6;
  CMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = Complex{(i < 3) ? 1.0 : 2.0, 0.0};
  std::vector<double> ev;
  CMatrix v;
  linalg::heig(a, ev, v);
  EXPECT_NEAR(ev[0], 1.0, 1e-12);
  EXPECT_NEAR(ev[2], 1.0, 1e-12);
  EXPECT_NEAR(ev[3], 2.0, 1e-12);
  EXPECT_NEAR(ev[5], 2.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Bitwise oracles. The tiled kernels must give every output element the bits
// of the one-element loops below (the loops they replaced, kept verbatim as
// references), compared with memcmp, not merely agree to a tolerance.

namespace ref {

void gemm_cn(Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta, CMatrix& c) {
  const std::size_t m = a.cols(), n = b.cols(), k = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    const Complex* bj = b.col(j);
    for (std::size_t i = 0; i < m; ++i) {
      const Complex* ai = a.col(i);
      Complex acc{0.0, 0.0};
      for (std::size_t l = 0; l < k; ++l) acc += std::conj(ai[l]) * bj[l];
      c(i, j) = beta == Complex{0.0, 0.0} ? alpha * acc : alpha * acc + beta * c(i, j);
    }
  }
}

void gemm_nn(Complex alpha, const CMatrix& a, const CMatrix& b, Complex beta, CMatrix& c) {
  const std::size_t m = a.rows(), n = b.cols(), k = a.cols();
  for (std::size_t j = 0; j < n; ++j) {
    Complex* cj = c.col(j);
    if (beta == Complex{0.0, 0.0}) {
      for (std::size_t i = 0; i < m; ++i) cj[i] = Complex{0.0, 0.0};
    } else if (beta != Complex{1.0, 0.0}) {
      for (std::size_t i = 0; i < m; ++i) cj[i] *= beta;
    }
    for (std::size_t l = 0; l < k; ++l) {
      const Complex f = alpha * b(l, j);
      if (f == Complex{0.0, 0.0}) continue;
      const Complex* al = a.col(l);
      for (std::size_t i = 0; i < m; ++i) cj[i] += f * al[i];
    }
  }
}

void trsm_right_lower_conj(CMatrix& x, const CMatrix& l) {
  const std::size_t m = x.rows(), n = x.cols();
  for (std::size_t j = 0; j < n; ++j) {
    Complex* xj = x.col(j);
    for (std::size_t k = 0; k < j; ++k) {
      const Complex f = std::conj(l(j, k));
      if (f == Complex{0.0, 0.0}) continue;
      const Complex* xk = x.col(k);
      for (std::size_t i = 0; i < m; ++i) xj[i] -= f * xk[i];
    }
    const Complex d = l(j, j);
    PWDFT_CHECK(std::abs(d) > 0.0, "trsm: singular triangular factor");
    const Complex inv = Complex{1.0, 0.0} / d;
    for (std::size_t i = 0; i < m; ++i) xj[i] *= inv;
  }
}

double offdiag_norm(const CMatrix& a) {
  const std::size_t n = a.rows();
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i) acc += std::norm(a(i, j));
  return std::sqrt(2.0 * acc);
}

void heig(const CMatrix& a_in, std::vector<double>& evals, CMatrix& v) {
  const std::size_t n = a_in.rows();
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) a(i, j) = 0.5 * (a_in(i, j) + std::conj(a_in(j, i)));
  v.resize(n, n);
  for (std::size_t i = 0; i < n; ++i) v(i, i) = Complex{1.0, 0.0};
  double scale = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, std::abs(a(i, j)));
  if (scale == 0.0) scale = 1.0;
  const double tol = 1e-14 * scale * static_cast<double>(n);
  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps && offdiag_norm(a) > tol; ++sweep) {
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const Complex apq = a(p, q);
        const double mag = std::abs(apq);
        if (mag <= tol / static_cast<double>(n)) continue;
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        const Complex phase = apq / mag;
        const double tau = (app - aqq) / (2.0 * mag);
        const double t = (tau >= 0.0) ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                      : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < n; ++i) {
          const Complex aip = a(i, p), aiq = a(i, q);
          a(i, p) = c * aip + s * std::conj(phase) * aiq;
          a(i, q) = -s * phase * aip + c * aiq;
        }
        for (std::size_t j = 0; j < n; ++j) {
          const Complex apj = a(p, j), aqj = a(q, j);
          a(p, j) = c * apj + s * phase * aqj;
          a(q, j) = -s * std::conj(phase) * apj + c * aqj;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const Complex vip = v(i, p), viq = v(i, q);
          v(i, p) = c * vip + s * std::conj(phase) * viq;
          v(i, q) = -s * phase * vip + c * viq;
        }
        a(p, q) = Complex{0.0, 0.0};
        a(q, p) = Complex{0.0, 0.0};
      }
    }
  }
  evals.resize(n);
  for (std::size_t i = 0; i < n; ++i) evals[i] = a(i, i).real();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(),
            [&](std::size_t x, std::size_t y) { return evals[x] < evals[y]; });
  std::vector<double> ev(n);
  CMatrix vs(n, n);
  for (std::size_t k = 0; k < n; ++k) {
    ev[k] = evals[perm[k]];
    for (std::size_t i = 0; i < n; ++i) vs(i, k) = v(i, perm[k]);
  }
  evals = std::move(ev);
  v = std::move(vs);
}

}  // namespace ref

bool same_bits(const CMatrix& x, const CMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(Complex)) == 0;
}

/// First element whose bits differ, for the failure message.
std::string first_diff(const CMatrix& x, const CMatrix& y) {
  for (std::size_t j = 0; j < x.cols(); ++j)
    for (std::size_t i = 0; i < x.rows(); ++i)
      if (std::memcmp(&x(i, j), &y(i, j), sizeof(Complex)) != 0) {
        std::ostringstream os;
        os.precision(17);
        os << "(" << i << "," << j << "): " << x(i, j) << " vs " << y(i, j);
        return os.str();
      }
  return "shapes differ";
}

/// Sets about a third of the entries to zero (and one whole row when it has
/// more than one), so the kernels' == 0 skips see isolated, mixed and
/// all-zero runs of coefficients.
void sprinkle_zeros(CMatrix& m, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i)
    if (rng.uniform() < 0.3) m.data()[i] = (rng.uniform() < 0.5) ? Complex{0.0, 0.0} : Complex{-0.0, 0.0};
  if (m.rows() > 1) {
    const std::size_t r = rng.integer() % m.rows();
    for (std::size_t j = 0; j < m.cols(); ++j) m(r, j) = Complex{0.0, 0.0};
  }
}

const std::size_t kEdgeSizes[] = {1, 2, 3, 5, 16, 17, 48};
const Complex kAlphas[] = {{1.0, 0.0}, {-1.0, 0.0}, {1.3, -0.2}};
const Complex kBetas[] = {{0.0, 0.0}, {1.0, 0.0}, {0.4, 0.9}};

/// One gemm('op','N') call of the kernel and of its reference on the same
/// inputs; C starts as NaN when beta == 0, which neither may read.
void expect_gemm_bits(char opa, std::size_t m, std::size_t n, std::size_t k, Complex alpha,
                      Complex beta, std::uint64_t seed) {
  const bool cn = opa == 'C';
  const CMatrix a = cn ? random_matrix(k, m, seed) : random_matrix(m, k, seed);
  CMatrix b = random_matrix(k, n, seed + 1);
  if (!cn) sprinkle_zeros(b, seed + 2);
  CMatrix c0 = random_matrix(m, n, seed + 3);
  if (beta == Complex{0.0, 0.0}) c0.fill(Complex{std::numeric_limits<double>::quiet_NaN(), 0.0});
  CMatrix c_ref = c0, c_new = c0;
  (cn ? ref::gemm_cn : ref::gemm_nn)(alpha, a, b, beta, c_ref);
  linalg::gemm(opa, 'N', alpha, a, b, beta, c_new);
  EXPECT_TRUE(same_bits(c_ref, c_new))
      << opa << "N m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
      << " beta=" << beta << " first diff " << first_diff(c_ref, c_new);
}

TEST(LinalgBits, GemmCNMatchesOneElementLoopOverEveryTileEdge) {
  std::uint64_t seed = 1000;
  for (std::size_t m : kEdgeSizes)
    for (std::size_t n : kEdgeSizes)
      for (std::size_t k : kEdgeSizes)
        for (const Complex alpha : kAlphas)
          for (const Complex beta : kBetas) expect_gemm_bits('C', m, n, k, alpha, beta, seed++);
}

TEST(LinalgBits, GemmCNMatchesOneElementLoopOn751RowBlocks) {
  std::uint64_t seed = 2000;
  std::size_t combo = 0;
  for (std::size_t m : kEdgeSizes)
    for (std::size_t n : kEdgeSizes) {
      expect_gemm_bits('C', m, n, 751, kAlphas[combo % 3], kBetas[(combo / 3) % 3], seed++);
      ++combo;
    }
}

TEST(LinalgBits, GemmNNMatchesColumnLoopOverEveryTileEdge) {
  std::uint64_t seed = 3000;
  for (std::size_t m : kEdgeSizes)
    for (std::size_t n : kEdgeSizes)
      for (std::size_t k : kEdgeSizes)
        for (const Complex alpha : kAlphas)
          for (const Complex beta : kBetas) expect_gemm_bits('N', m, n, k, alpha, beta, seed++);
}

TEST(LinalgBits, GemmNNMatchesColumnLoopOn751RowBlocks) {
  std::uint64_t seed = 4000;
  std::size_t combo = 0;
  for (std::size_t n : kEdgeSizes)
    for (std::size_t k : kEdgeSizes) {
      expect_gemm_bits('N', 751, n, k, kAlphas[combo % 3], kBetas[(combo / 3) % 3], seed++);
      ++combo;
    }
}

TEST(LinalgBits, GemmNNSkipsZeroRowsOfCoefficients) {
  // The LOBPCG conjugate direction: S * C with C's leading rows all zero.
  const std::size_t m = 751, nb = 16;
  const CMatrix s = random_matrix(m, 3 * nb, 4500);
  CMatrix tail = random_matrix(3 * nb, nb, 4501);
  for (std::size_t j = 0; j < nb; ++j)
    for (std::size_t i = 0; i < nb + 2; ++i) tail(i, j) = Complex{0.0, 0.0};
  CMatrix p_ref(m, nb), p_new(m, nb);
  ref::gemm_nn(Complex{1.0, 0.0}, s, tail, Complex{0.0, 0.0}, p_ref);
  linalg::gemm('N', 'N', Complex{1.0, 0.0}, s, tail, Complex{0.0, 0.0}, p_new);
  EXPECT_TRUE(same_bits(p_ref, p_new)) << first_diff(p_ref, p_new);
}

/// Lower-triangular factor of a random HPD matrix with about a third of its
/// strictly-lower entries zeroed (still a valid nonsingular factor).
CMatrix sparse_factor(std::size_t n, std::uint64_t seed) {
  CMatrix l = random_hpd(n, seed);
  linalg::potrf_lower(l);
  Rng rng(seed + 1);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i)
      if (rng.uniform() < 0.3) l(i, j) = Complex{0.0, 0.0};
  return l;
}

TEST(LinalgBits, TrsmMatchesColumnLoopOverEveryTileEdge) {
  std::uint64_t seed = 5000;
  for (std::size_t m : {1, 2, 3, 5, 16, 17, 48, 751})
    for (std::size_t n : kEdgeSizes)
      for (const bool sparse : {false, true}) {
        CMatrix l = sparse ? sparse_factor(n, seed) : random_hpd(n, seed);
        if (!sparse) linalg::potrf_lower(l);
        const CMatrix x0 = random_matrix(m, n, seed + 7);
        CMatrix x_ref = x0, x_new = x0;
        ref::trsm_right_lower_conj(x_ref, l);
        linalg::trsm_right_lower_conj(x_new, l);
        EXPECT_TRUE(same_bits(x_ref, x_new))
            << "m=" << m << " n=" << n << " sparse=" << sparse << " first diff "
            << first_diff(x_ref, x_new);
        seed += 10;
      }
}

TEST(LinalgBits, TrsmRejectsSingularFactor) {
  CMatrix l = random_hpd(6, 5900);
  linalg::potrf_lower(l);
  l(4, 4) = Complex{0.0, 0.0};
  CMatrix x = random_matrix(20, 6, 5901);
  EXPECT_THROW(linalg::trsm_right_lower_conj(x, l), Error);
}

/// Q diag(lambda) Q^H with a random unitary Q, plus a small non-Hermitian
/// perturbation of relative size `noise` (what heig's hermitization absorbs).
CMatrix with_spectrum(const std::vector<double>& lambda, double noise, std::uint64_t seed) {
  const std::size_t n = lambda.size();
  CMatrix q = random_matrix(n, n, seed);
  CMatrix g = linalg::overlap(q, q);
  linalg::potrf_lower(g);
  linalg::trsm_right_lower_conj(q, g);
  CMatrix qd = q;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i) qd(i, j) *= lambda[j];
  CMatrix a(n, n);
  linalg::gemm('N', 'C', Complex{1.0, 0.0}, qd, q, Complex{0.0, 0.0}, a);
  const CMatrix e = random_matrix(n, n, seed + 1);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] += noise * e.data()[i];
  return a;
}

enum class Spectrum { kRandom, kClustered, kDegenerate };

CMatrix heig_input(Spectrum kind, std::size_t n, std::uint64_t seed) {
  if (kind == Spectrum::kRandom) return random_matrix(n, n, seed);
  std::vector<double> lambda(n);
  Rng rng(seed + 2);
  for (std::size_t i = 0; i < n; ++i) {
    if (kind == Spectrum::kClustered) {
      // LOBPCG-like Rayleigh-Ritz: clusters of near-converged Ritz values
      // split by 1e-9 .. 1e-12, over a spread of unconverged ones.
      const double centre = -0.4 + 0.1 * static_cast<double>(i / 3);
      lambda[i] = i < n / 2 ? centre + 1e-9 * rng.uniform() * std::pow(1e-3, i % 2)
                            : 2.0 + 5.0 * rng.uniform();
    } else {
      // Exactly repeated values: triplets, as in Si's degenerate multiplets.
      lambda[i] = -0.2 + 0.25 * static_cast<double>(i / 3);
    }
  }
  return with_spectrum(lambda, kind == Spectrum::kClustered ? 1e-14 : 0.0, seed);
}

TEST(LinalgBits, HeigMatchesJacobiLoopOnRandomClusteredAndDegenerateSpectra) {
  std::uint64_t seed = 6000;
  for (const Spectrum kind : {Spectrum::kRandom, Spectrum::kClustered, Spectrum::kDegenerate})
    for (std::size_t n : {1, 2, 5, 16, 32, 48}) {
      const CMatrix a = heig_input(kind, n, seed++);
      std::vector<double> ev_ref, ev_new;
      CMatrix v_ref, v_new;
      ref::heig(a, ev_ref, v_ref);
      linalg::heig(a, ev_new, v_new);
      const char* name[] = {"random", "clustered", "degenerate"};
      ASSERT_EQ(ev_ref.size(), ev_new.size());
      EXPECT_EQ(std::memcmp(ev_ref.data(), ev_new.data(), n * sizeof(double)), 0)
          << name[static_cast<int>(kind)] << " n=" << n;
      EXPECT_TRUE(same_bits(v_ref, v_new))
          << name[static_cast<int>(kind)] << " n=" << n << " first diff "
          << first_diff(v_ref, v_new);
    }
}

TEST(Lsq, SolvesConsistentSystemExactly) {
  CMatrix a = random_matrix(10, 4, 71);
  Rng rng(8);
  std::vector<Complex> xtrue(4);
  for (auto& v : xtrue) v = rng.complex_normal();
  std::vector<Complex> b(10, Complex{0, 0});
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 10; ++i) b[i] += a(i, j) * xtrue[j];
  auto x = linalg::lsq_solve(a, b, 0.0);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(std::abs(x[j] - xtrue[j]), 0.0, 1e-8);
}

TEST(Lsq, ResidualOrthogonalToColumnSpace) {
  CMatrix a = random_matrix(12, 3, 81);
  Rng rng(9);
  std::vector<Complex> b(12);
  for (auto& v : b) v = rng.complex_normal();
  auto x = linalg::lsq_solve(a, b, 0.0);
  std::vector<Complex> r = b;
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 12; ++i) r[i] -= a(i, j) * x[j];
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(std::abs(linalg::dotc({a.col(j), 12}, r)), 0.0, 1e-9);
}

TEST(Lsq, RegularizationShrinksSolution) {
  CMatrix a = random_matrix(8, 4, 91);
  Rng rng(10);
  std::vector<Complex> b(8);
  for (auto& v : b) v = rng.complex_normal();
  auto x0 = linalg::lsq_solve(a, b, 1e-12);
  auto x1 = linalg::lsq_solve(a, b, 10.0);
  double n0 = 0, n1 = 0;
  for (std::size_t j = 0; j < 4; ++j) {
    n0 += std::norm(x0[j]);
    n1 += std::norm(x1[j]);
  }
  EXPECT_LT(n1, n0);
}

TEST(Lsq, GramVariantMatchesDirect) {
  CMatrix a = random_matrix(9, 3, 101);
  Rng rng(11);
  std::vector<Complex> b(9);
  for (auto& v : b) v = rng.complex_normal();
  auto x_direct = linalg::lsq_solve(a, b, 1e-10);
  CMatrix gram = linalg::overlap(a, a);
  std::vector<Complex> rhs(3);
  for (std::size_t j = 0; j < 3; ++j) rhs[j] = linalg::dotc({a.col(j), 9}, b);
  auto x_gram = linalg::lsq_solve_gram(gram, rhs, 1e-10);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(std::abs(x_direct[j] - x_gram[j]), 0.0, 1e-10);
}

}  // namespace
}  // namespace pwdft
