#pragma once

/// \file band_ops.hpp
/// Band- and element-parallel primitives shared by the td propagators.
/// All of them write disjoint elements per task, so results are
/// bit-identical at any engine width (docs/threading.md).

#include <memory>
#include <span>
#include <vector>

#include "common/exec.hpp"
#include "linalg/matrix.hpp"
#include "scf/anderson.hpp"

namespace pwdft::td::detail {

/// dst += c * src, element-parallel.
inline void add_scaled(Complex c, const CMatrix& src, CMatrix& dst) {
  Complex* d = dst.data();
  const Complex* s = src.data();
  exec::parallel_for(
      dst.size(),
      [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) d[i] += c * s[i];
      },
      4096);
}

/// dst = a + w * b, element-parallel (the RK4 stage combination).
inline void assign_sum_scaled(const CMatrix& a, double w, const CMatrix& b, CMatrix& dst) {
  Complex* d = dst.data();
  const Complex* pa = a.data();
  const Complex* pb = b.data();
  exec::parallel_for(
      dst.size(),
      [=](std::size_t b0, std::size_t e) {
        for (std::size_t i = b0; i < e; ++i) d[i] = pa[i] + w * pb[i];
      },
      4096);
}

/// r(g, j) /= 1 + i c k[g] for every G row g, element-parallel: the
/// kinetic preconditioner of the PT-CN fixed point (td/ptcn.hpp).
inline void divide_kinetic_rows(double c, std::span<const double> k, CMatrix& r) {
  Complex* rp = r.data();
  const double* kp = k.data();
  const std::size_t ng = r.rows();
  exec::parallel_for_cols(r.cols(), ng, [=](std::size_t col, std::size_t r0, std::size_t len) {
    Complex* rc = rp + col * ng;
    for (std::size_t g = r0; g < r0 + len; ++g) rc[g] /= Complex{1.0, c * kp[g]};
  });
}

/// Per-band Anderson fixed-point update x_j <- mix_j(x_j, -r_j): the mixers
/// are fully independent per band, so the loop runs band-parallel; each
/// task's residual buffer comes from the executing thread's arena.
inline void anderson_mix_bands(std::vector<std::unique_ptr<scf::AndersonMixer>>& mixers,
                               const CMatrix& r, CMatrix& x) {
  const std::size_t ng = x.rows();
  exec::parallel_for(mixers.size(), [&](std::size_t jb, std::size_t je) {
    auto f = exec::workspace().cbuf(exec::Slot::mix_f, ng);
    for (std::size_t j = jb; j < je; ++j) {
      const Complex* rj = r.col(j);
      for (std::size_t i = 0; i < ng; ++i) f[i] = -rj[i];
      mixers[j]->mix({x.col(j), ng}, f, {x.col(j), ng});
    }
  });
}

}  // namespace pwdft::td::detail
