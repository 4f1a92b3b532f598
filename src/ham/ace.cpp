#include "ham/ace.hpp"

#include "common/check.hpp"
#include "common/exec.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"

namespace pwdft::ham {

void AceOperator::build(FockOperator& fock, const CMatrix& phi_local, par::Comm& comm) {
  PWDFT_CHECK(fock.has_orbitals(), "AceOperator: Fock orbitals not set");
  const std::size_t ng = setup_.n_g();
  const std::size_t nb_loc = phi_local.cols();

  // W = VX[Phi] Phi: the registered orbitals themselves, so the Fock
  // operator solves its diagonal block as the upper triangle.
  CMatrix w_local(ng, nb_loc, Complex{0.0, 0.0});
  fock.apply_self_add(w_local, comm);

  psi_bands_ = par::BlockPartition(0, comm.size());  // reset below
  // Recover the global band partition from the local counts: the Fock
  // operator was given the same layout, so rebuild it identically.
  // (All shipped callers use BlockPartition(nb_total, nranks).)
  std::size_t nb_total = nb_loc;
  {
    double nb = static_cast<double>(nb_loc);
    comm.allreduce_sum(&nb, 1);
    nb_total = static_cast<std::size_t>(nb + 0.5);
  }
  psi_bands_ = par::BlockPartition(nb_total, comm.size());
  transpose_ = par::WavefunctionTranspose(par::BlockPartition(ng, comm.size()), psi_bands_);

  CMatrix phi_g, w_g;
  transpose_.band_to_g(comm, phi_local, phi_g, /*single_precision=*/false);
  transpose_.band_to_g(comm, w_local, w_g, /*single_precision=*/false);

  // M = Phi^H W (global): local product over this rank's G rows + Allreduce.
  CMatrix m = linalg::overlap(phi_g, w_g);
  comm.allreduce_sum(m.data(), m.size());

  // -M = L L^H with a tiny Tikhonov jitter for near-null exchange modes.
  CMatrix neg_m(nb_total, nb_total);
  double trace = 0.0;
  for (std::size_t i = 0; i < nb_total; ++i) trace += -m(i, i).real();
  const double jitter = std::max(trace, 1e-8) * 1e-12;
  for (std::size_t j = 0; j < nb_total; ++j)
    for (std::size_t i = 0; i < nb_total; ++i)
      neg_m(i, j) = -0.5 * (m(i, j) + std::conj(m(j, i)));
  for (std::size_t i = 0; i < nb_total; ++i) neg_m(i, i) += jitter;
  linalg::potrf_lower(neg_m);

  // Xi = W L^{-H} in the G layout.
  xi_g_ = std::move(w_g);
  linalg::trsm_right_lower_conj(xi_g_, neg_m);
  ++builds_;
}

void AceOperator::apply_add(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm) const {
  PWDFT_CHECK(ready(), "AceOperator: not built");
  const std::size_t ncol = psi_local.cols();

  // The transpose machinery requires the column partition to match the
  // layout Xi was built with; PT-CN always applies ACE to full band blocks.
  par::BlockPartition cols(psi_bands_.total(), comm.size());
  PWDFT_CHECK(cols.count(comm.rank()) == ncol, "AceOperator: column layout mismatch");

  // Scratch from the executing rank's arena: apply_add sits inside the
  // SCF/propagator inner loops, so steady state must not heap-allocate
  // (tests/test_alloc_free.cpp). Dedicated ace_* slots — pt_*/ham_* blocks
  // may be live around the enclosing Hamiltonian::apply.
  auto& ws = exec::workspace();
  CMatrix& psi_g = ws.cmat(exec::Slot::ace_ga, 0, 0);
  transpose_.band_to_g(comm, psi_local, psi_g, /*single_precision=*/false);

  // P = Xi^H psi (nb x nb), then contribution -Xi P, all in the G layout.
  CMatrix& p = ws.cmat(exec::Slot::ace_p, xi_g_.cols(), psi_g.cols());
  linalg::overlap_into(xi_g_, psi_g, p);
  comm.allreduce_sum(p.data(), p.size());

  CMatrix& contrib_g = ws.cmat(exec::Slot::ace_gb, psi_g.rows(), psi_g.cols());
  linalg::gemm('N', 'N', Complex{-1.0, 0.0}, xi_g_, p, Complex{0.0, 0.0}, contrib_g);

  CMatrix& contrib_band = ws.cmat(exec::Slot::ace_band, 0, 0);
  transpose_.g_to_band(comm, contrib_g, contrib_band, /*single_precision=*/false);
  for (std::size_t j = 0; j < ncol; ++j)
    linalg::axpy(Complex{1.0, 0.0}, {contrib_band.col(j), contrib_band.rows()},
                 {y_local.col(j), y_local.rows()});
}

}  // namespace pwdft::ham
