#include "td/ptcn.hpp"

#include "common/check.hpp"
#include "common/exec.hpp"
#include "ham/density.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "td/band_ops.hpp"

namespace pwdft::td {

CMatrix pt_residual_from_g(const par::WavefunctionTranspose& transpose, par::Comm& comm,
                           const CMatrix& psi_g, const CMatrix& hpsi_band,
                           const CMatrix* half_g, Complex c_psi, Complex c_h, Complex c_half,
                           bool sp_comm) {
  // Alg. 3 with Psi (and Psi_half) already in the G-space layout: transpose
  // H Psi, form the overlap matrix with a local GEMM + Allreduce, rotate,
  // combine, convert back. The H Psi block comes from the rank's workspace
  // arena (each ThreadComm rank is its own thread, so arenas never collide
  // across ranks).
  auto& ws = exec::workspace();
  CMatrix& hpsi_g = ws.cmat(exec::Slot::pt_gb, 0, 0);
  transpose.band_to_g(comm, hpsi_band, hpsi_g, sp_comm);

  CMatrix s = linalg::overlap(psi_g, hpsi_g);
  comm.allreduce_sum(s.data(), s.size());

  // R_g = c_psi Psi + c_h (HPsi - Psi S) - c_half Psi_half; computed in
  // place in the HPsi block.
  CMatrix& r_g = hpsi_g;
  linalg::gemm('N', 'N', Complex{-1.0, 0.0}, psi_g, s, Complex{1.0, 0.0}, r_g);
  const std::size_t n = r_g.size();
  Complex* r = r_g.data();
  const Complex* pg = psi_g.data();
  const Complex* hg = half_g ? half_g->data() : nullptr;
  exec::parallel_for(
      n,
      [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          Complex v = c_h * r[i] + c_psi * pg[i];
          if (hg) v -= c_half * hg[i];
          r[i] = v;
        }
      },
      4096);

  CMatrix r_band;
  transpose.g_to_band(comm, r_g, r_band, sp_comm);
  return r_band;
}

CMatrix pt_residual(const par::WavefunctionTranspose& transpose, par::Comm& comm,
                    const CMatrix& psi_band, const CMatrix& hpsi_band,
                    const CMatrix* psi_half_band, Complex c_psi, Complex c_h, Complex c_half,
                    bool sp_comm) {
  auto& ws = exec::workspace();
  CMatrix& psi_g = ws.cmat(exec::Slot::pt_ga, 0, 0);
  CMatrix& half_g = ws.cmat(exec::Slot::pt_gc, 0, 0);
  transpose.band_to_g(comm, psi_band, psi_g, sp_comm);
  if (psi_half_band) transpose.band_to_g(comm, *psi_half_band, half_g, sp_comm);
  return pt_residual_from_g(transpose, comm, psi_g, hpsi_band,
                            psi_half_band ? &half_g : nullptr, c_psi, c_h, c_half, sp_comm);
}

void orthonormalize(const par::WavefunctionTranspose& transpose, par::Comm& comm,
                    CMatrix& psi_band, bool sp_comm) {
  CMatrix& psi_g = exec::workspace().cmat(exec::Slot::pt_ga, 0, 0);
  transpose.band_to_g(comm, psi_band, psi_g, sp_comm);
  CMatrix s = linalg::overlap(psi_g, psi_g);
  comm.allreduce_sum(s.data(), s.size());
  // Replicated Cholesky (the paper runs cuSOLVER on one GPU; the factor is
  // tiny compared with everything else) followed by the local column solve.
  linalg::potrf_lower(s);
  linalg::trsm_right_lower_conj(psi_g, s);
  transpose.g_to_band(comm, psi_g, psi_band, sp_comm);
}

PtCnPropagator::PtCnPropagator(ham::Hamiltonian& hamiltonian, par::BlockPartition bands,
                               PtCnOptions opt, int comm_size)
    : ham_(hamiltonian),
      bands_(bands),
      opt_(opt),
      transpose_(par::BlockPartition(hamiltonian.setup().n_g(), comm_size), bands) {
  PWDFT_CHECK(opt_.dt > 0.0, "PtCnPropagator: dt must be positive");
}

PtCnStepReport PtCnPropagator::step(CMatrix& psi_local, std::span<const double> occ_global,
                                    double t, const ExternalField& field, par::Comm& comm,
                                    TimerRegistry* timers) {
  TimerRegistry local_timers;
  if (!timers) timers = &local_timers;
  const std::size_t ng = ham_.setup().n_g();
  const std::size_t nb_loc = bands_.count(comm.rank());
  PWDFT_CHECK(psi_local.rows() == ng && psi_local.cols() == nb_loc,
              "PtCnPropagator: band layout mismatch");
  std::span<const double> occ_local(occ_global.data() + bands_.offset(comm.rank()), nb_loc);

  // Lazily build one Anderson mixer per local band (paper §3.4: one small
  // least-squares problem per wavefunction, history <= 20).
  if (mixers_.size() != nb_loc) {
    mixers_.clear();
    for (std::size_t j = 0; j < nb_loc; ++j)
      mixers_.push_back(std::make_unique<scf::AndersonMixer>(ng, opt_.anderson_depth,
                                                             opt_.anderson_beta));
  }
  for (auto& m : mixers_) m->reset();

  PtCnStepReport report;
  const Complex i_half_dt = imag_unit * (0.5 * opt_.dt);

  // --- Initial residual Rn = Hn Psi_n - Psi_n (Psi^H Hn Psi) at time t. ---
  ham_.set_vector_potential(field.vector_potential(t));
  std::vector<double> rho;
  {
    ScopedTimer st(*timers, "density");
    rho = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi_local, occ_local, comm);
  }
  {
    ScopedTimer st(*timers, "others");
    ham_.update_density(rho);
  }
  // Exchange cadence: with MTS off every H apply below registers the block
  // it applies to (Psi_n here, Psi_f in each SCF iteration), so exchange
  // runs as the Fock self-apply; with MTS on the scheduler decides —
  // deterministically — between rebuilding from Psi_n and keeping the
  // frozen operator, and every apply of the step uses it.
  const MtsStepDecision mts = mts_.begin_step(ham_, psi_local, occ_global, bands_, comm,
                                              opt_.mts_interval, opt_.mts_drift_tol);
  report.exchange_refreshed = ham_.hybrid_enabled() && (!mts.active || mts.refreshed);
  report.mts_drift = mts.drift;
  CMatrix hpsi;
  auto apply_h = [&](const CMatrix& psi) {
    if (mts.active) {
      ham_.apply(psi, hpsi, comm, timers);
    } else {
      ham_.register_and_apply(psi, occ_global, bands_, hpsi, comm, timers);
    }
    ++report.fock_applies;
  };
  // The Psi -> G transpose rides behind H Psi: packed here, its exchange
  // parked on the async lane against the stream's dup()'ed communicator
  // while the Fock band loop broadcasts on `comm` (overlap.hpp).
  psi_ovl_.start_band_to_g(transpose_, comm, psi_local, psi_g_, opt_.sp_comm);
  apply_h(psi_local);

  CMatrix rn;
  {
    ScopedTimer st(*timers, "residual");
    psi_ovl_.wait();
    rn = pt_residual_from_g(transpose_, comm, psi_g_, hpsi, nullptr, Complex{0.0, 0.0},
                            Complex{1.0, 0.0}, Complex{0.0, 0.0}, opt_.sp_comm);
  }

  // --- Psi_{n+1/2} = Psi_n - i dt/2 Rn; initial guess Psi_f = Psi_{n+1/2}.
  CMatrix psi_half = psi_local;
  detail::add_scaled(-i_half_dt, rn, psi_half);
  CMatrix psi_f = psi_half;

  // The Psi_half transpose is invariant across the SCF loop: pay it once
  // here instead of once per residual evaluation (Alg. 3 line 1), and let
  // its exchange ride behind the Psi_f density build on its own stream.
  {
    ScopedTimer st(*timers, "residual");
    half_ovl_.start_band_to_g(transpose_, comm, psi_half, half_g_, opt_.sp_comm);
  }

  std::vector<double> rho_f;
  {
    ScopedTimer st(*timers, "density");
    rho_f = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi_f, occ_local, comm);
  }
  {
    ScopedTimer st(*timers, "residual");
    half_ovl_.wait();
  }

  // --- SCF fixed-point loop at time t + dt. ---
  ham_.set_vector_potential(field.vector_potential(t + opt_.dt));
  for (int it = 0; it < opt_.max_scf; ++it) {
    {
      ScopedTimer st(*timers, "others");
      ham_.update_density(rho_f);
    }
    psi_ovl_.start_band_to_g(transpose_, comm, psi_f, psi_g_, opt_.sp_comm);
    apply_h(psi_f);

    CMatrix rf;
    {
      ScopedTimer st(*timers, "residual");
      psi_ovl_.wait();
      rf = pt_residual_from_g(transpose_, comm, psi_g_, hpsi, &half_g_, Complex{1.0, 0.0},
                              i_half_dt, Complex{1.0, 0.0}, opt_.sp_comm);
    }

    {
      // Fixed point x = g(x) with g(x) = x - P^-1 Rf, so the Anderson
      // residual input is f = -P^-1 Rf. Rf's Jacobian is about
      // I + i dt/2 (H - eps), and at high G its kinetic part dominates, so
      // P = 1 + i dt/2 |G + A(t+dt)|^2 / 2 (fixed inside this loop) flattens
      // the stiff modes: same fixed point, about half the iterations.
      ScopedTimer st(*timers, "anderson");
      detail::divide_kinetic_rows(0.5 * opt_.dt, ham_.kinetic(), rf);
      detail::anderson_mix_bands(mixers_, rf, psi_f);
    }

    std::vector<double> rho_new;
    {
      ScopedTimer st(*timers, "density");
      rho_new = ham::compute_density(ham_.setup(), ham_.fft_dense(), psi_f, occ_local, comm);
    }
    report.rho_error = ham::density_error(ham_.setup(), rho_new, rho_f);
    rho_f = std::move(rho_new);
    report.scf_iterations = it + 1;
    if (report.rho_error < opt_.rho_tol) {
      report.converged = true;
      break;
    }
  }

  // --- Orthonormalize Psi_f -> Psi_{n+1} (paper §3.4). ---
  {
    ScopedTimer st(*timers, "ortho");
    orthonormalize(transpose_, comm, psi_f, opt_.sp_comm);
  }
  psi_local = std::move(psi_f);

  // Fold the overlap streams' traffic into the caller-visible record so the
  // comm-volume accounting (bench/real_comm_volume, perf model validation)
  // sees one total regardless of which domain carried each transpose.
  psi_ovl_.fold_stats(comm);
  half_ovl_.fold_stats(comm);
  return report;
}

}  // namespace pwdft::td
