#include "td/cn.hpp"

#include "common/check.hpp"
#include "common/exec.hpp"
#include "ham/density.hpp"
#include "linalg/blas.hpp"
#include "td/band_ops.hpp"

namespace pwdft::td {

CnPropagator::CnPropagator(ham::Hamiltonian& hamiltonian, par::BlockPartition bands,
                           CnOptions opt, int comm_size)
    : ham_(hamiltonian),
      bands_(bands),
      opt_(opt),
      transpose_(par::BlockPartition(hamiltonian.setup().n_g(), comm_size), bands) {
  PWDFT_CHECK(opt_.dt > 0.0, "CnPropagator: dt must be positive");
}

CnStepReport CnPropagator::step(CMatrix& psi_local, std::span<const double> occ_global,
                                double t, const ExternalField& field, par::Comm& comm,
                                TimerRegistry* timers) {
  TimerRegistry local_timers;
  if (!timers) timers = &local_timers;
  const std::size_t ng = ham_.setup().n_g();
  const std::size_t nb_loc = bands_.count(comm.rank());
  PWDFT_CHECK(psi_local.rows() == ng && psi_local.cols() == nb_loc,
              "CnPropagator: band layout mismatch");
  std::span<const double> occ_local(occ_global.data() + bands_.offset(comm.rank()), nb_loc);

  if (mixers_.size() != nb_loc) {
    mixers_.clear();
    for (std::size_t j = 0; j < nb_loc; ++j)
      mixers_.push_back(std::make_unique<scf::AndersonMixer>(ng, opt_.anderson_depth,
                                                             opt_.anderson_beta));
  }
  for (auto& m : mixers_) m->reset();

  CnStepReport report;
  const Complex i_half_dt = imag_unit * (0.5 * opt_.dt);

  // RHS: Psi_half = Psi_n - i dt/2 H_n Psi_n  (no gauge term).
  ham_.set_vector_potential(field.vector_potential(t));
  auto rho = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi_local, occ_local, comm);
  ham_.update_density(rho);
  CMatrix hpsi;
  ham_.register_and_apply(psi_local, occ_global, bands_, hpsi, comm, timers);

  CMatrix psi_half = psi_local;
  detail::add_scaled(-i_half_dt, hpsi, psi_half);
  CMatrix psi_f = psi_half;

  auto rho_f = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi_f, occ_local, comm);
  ham_.set_vector_potential(field.vector_potential(t + opt_.dt));

  for (int it = 0; it < opt_.max_scf; ++it) {
    ham_.update_density(rho_f);
    ham_.register_and_apply(psi_f, occ_global, bands_, hpsi, comm, timers);

    // R = Psi_f + i dt/2 H Psi_f - Psi_half — entirely band-local: the plain
    // CN residual needs no overlap matrix and hence no transpose/Allreduce.
    // The residual, the per-band norms, and the per-band Anderson mixes all
    // run band-parallel with disjoint writes (bit-identical at any width).
    CMatrix& rf = exec::workspace().cmat(exec::Slot::cn_r, ng, nb_loc);
    {
      Complex* r = rf.data();
      const Complex* pf = psi_f.data();
      const Complex* hp = hpsi.data();
      const Complex* ph = psi_half.data();
      exec::parallel_for(
          rf.size(),
          [=](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) r[i] = pf[i] + i_half_dt * hp[i] - ph[i];
          },
          4096);
    }

    auto norms = exec::workspace().rbuf(exec::Slot::band_norms, nb_loc);
    exec::parallel_for(nb_loc, [&](std::size_t jb, std::size_t je) {
      for (std::size_t j = jb; j < je; ++j) norms[j] = linalg::nrm2({rf.col(j), ng});
    });
    double rmax = 0.0;
    for (std::size_t j = 0; j < nb_loc; ++j) rmax = std::max(rmax, norms[j]);
    comm.allreduce_sum(&rmax, 1);  // cheap aggregate (sum as an upper proxy)
    report.max_residual_norm = std::max(report.max_residual_norm, rmax);

    detail::anderson_mix_bands(mixers_, rf, psi_f);

    auto rho_new = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi_f, occ_local, comm);
    report.rho_error = ham::density_error(ham_.setup(), rho_new, rho_f);
    rho_f = std::move(rho_new);
    report.scf_iterations = it + 1;
    if (report.rho_error < opt_.rho_tol) {
      report.converged = true;
      break;
    }
    if (!std::isfinite(report.rho_error) || report.rho_error > 1e3) break;  // diverged
  }

  orthonormalize(transpose_, comm, psi_f, opt_.sp_comm);
  psi_local = std::move(psi_f);
  return report;
}

}  // namespace pwdft::td
