#include "linalg/heig.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"
#include "linalg/lanes.hpp"

namespace pwdft::linalg {

namespace {

double offdiag_norm(const CMatrix& a) {
  const std::size_t n = a.rows();
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j + 1; i < n; ++i) acc += std::norm(a(i, j));
  return std::sqrt(2.0 * acc);
}

using lanes::V2;

/// The Jacobi unitary acting on a column pair: c, s conj(phase) and -s phase.
struct Rotation {
  V2 c;
  lanes::Coef t1, t2;
};

/// (xp, xq) <- (c xp + t1 xq, t2 xp + c xq) for one row, in the real
/// arithmetic of the complex expressions (lanes.hpp).
void rotate(const Rotation& r, Complex* xp, Complex* xq) {
  const V2 p = lanes::load(xp), q = lanes::load(xq);
  lanes::store(xp, r.c * p + lanes::mul(r.t1, q));
  lanes::store(xq, lanes::mul(r.t2, p) + r.c * q);
}

/// rotate() on rows [i0, i1) of columns p and q of A, none of them p or q,
/// writing each new A(i,p), A(i,q) conjugated into A(p,i), A(q,i).
void rotate_mirrored(const Rotation& r, CMatrix& a, std::size_t p, std::size_t q,
                     std::size_t i0, std::size_t i1) {
  const std::size_t n = a.rows();
  Complex* ap = a.col(p);
  Complex* aq = a.col(q);
  for (std::size_t i = i0; i < i1; ++i) {
    const V2 xp = lanes::load(ap + i), xq = lanes::load(aq + i);
    const V2 np = r.c * xp + lanes::mul(r.t1, xq);
    const V2 nq = lanes::mul(r.t2, xp) + r.c * xq;
    lanes::store(ap + i, np);
    lanes::store(aq + i, nq);
    lanes::store(a.data() + p + i * n, lanes::conj(np));  // A(p,i)
    lanes::store(a.data() + q + i * n, lanes::conj(nq));  // A(q,i)
  }
}

}  // namespace

void heig(const CMatrix& a_in, std::vector<double>& evals, CMatrix& v) {
  PWDFT_CHECK(a_in.rows() == a_in.cols(), "heig: matrix must be square");
  const std::size_t n = a_in.rows();

  // Hermitize defensively; callers assemble A from products that can carry
  // O(eps) asymmetry.
  CMatrix a(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < n; ++i)
      a(i, j) = 0.5 * (a_in(i, j) + std::conj(a_in(j, i)));

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

        // 2x2 block [[app, apq],[conj(apq), aqq]]. With apq = mag*e^{i*phi},
        // the unitary U = [[c, -s e^{i phi}],[s e^{-i phi}, c]] zeroes the
        // off-diagonal when tan(2 theta) = 2*mag / (app - aqq).
        const double app = a(p, p).real();
        const double aqq = a(q, q).real();
        const Complex phase = apq / mag;  // e^{i phi}
        const double tau = (app - aqq) / (2.0 * mag);
        const double t = (tau >= 0.0) ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                      : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;

        // Column update A <- A U on rows i, and V <- V U:
        //   x_ip <- c x_ip + (s conj(phase)) x_iq,  x_iq <- (-s phase) x_ip + c x_iq.
        const Rotation rot{lanes::splat(c), lanes::coef(s * std::conj(phase)),
                           lanes::coef(-s * phase)};
        // Row update A <- U^H A. Outside the 2x2 block it is the conjugate of
        // the column update, bit for bit: the hermitized A stays exactly
        // Hermitian off the diagonal, so rows p and q are written as the
        // conjugates of the fresh columns instead of being recomputed.
        rotate_mirrored(rot, a, p, q, 0, p);
        rotate(rot, &a(p, p), &a(p, q));
        rotate_mirrored(rot, a, p, q, p + 1, q);
        rotate(rot, &a(q, p), &a(q, q));
        rotate_mirrored(rot, a, p, q, q + 1, n);
        for (const std::size_t j : {p, q}) {
          const Complex apj = a(p, j), aqj = a(q, j);
          a(p, j) = c * apj + s * phase * aqj;
          a(q, j) = -s * std::conj(phase) * apj + c * aqj;
        }
        for (std::size_t i = 0; i < n; ++i) rotate(rot, &v(i, p), &v(i, q));
        a(p, q) = Complex{0.0, 0.0};
        a(q, p) = Complex{0.0, 0.0};
      }
    }
  }

  evals.resize(n);
  for (std::size_t i = 0; i < n; ++i) evals[i] = a(i, i).real();

  // Sort ascending, permuting eigenvector columns accordingly.
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

}  // namespace pwdft::linalg
