#pragma once

/// \file ptcn.hpp
/// The parallel transport Crank-Nicolson propagator (paper Alg. 1).
///
/// Each step solves the implicit nonlinear equation (paper Eq. 5)
///   Psi_{n+1} + i dt/2 {H_{n+1} Psi_{n+1} - Psi_{n+1}(Psi^* H Psi)} = Psi_{n+1/2}
/// by a self-consistent field iteration with per-band Anderson mixing
/// (history 20), monitored by the electron density change (tol 1e-6), and
/// re-orthonormalizes via Cholesky at the end of the step (paper §3.3/§3.4).
/// Unlike the paper's loop, the mixers see the residual divided row by row
/// by the kinetic operator 1 + i dt/2 |G + A(t+dt)|^2 / 2: the residual's
/// Jacobian is about I + i dt/2 (H - eps), whose high-G kinetic part
/// dominates at 50 as steps. The fixed point is the same; it is reached in
/// about half the iterations, so every Fock apply, broadcast, Alltoallv and
/// Allreduce of the loop halves with them (tests/test_td_oracle.cpp bounds
/// where the loop stops).
/// Residuals are evaluated in the G-space layout (Alg. 3): Alltoallv
/// transposes (optionally single precision), a local GEMM for the overlap
/// matrix, an Allreduce, and a rotation GEMM.

#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "ham/hamiltonian.hpp"
#include "parallel/overlap.hpp"
#include "parallel/transpose.hpp"
#include "scf/anderson.hpp"
#include "td/field.hpp"
#include "td/mts.hpp"

namespace pwdft::td {

struct PtCnOptions {
  double dt = 2.0;               ///< a.u. (50 as ~ 2.067 a.u.)
  double rho_tol = 1e-6;         ///< density error per electron (paper §4)
  int max_scf = 40;
  std::size_t anderson_depth = 20;  ///< paper §3.4
  double anderson_beta = 1.0;
  bool sp_comm = true;           ///< single-precision Alltoallv payloads (§3.3)
  /// Multiple time stepping of the exchange operator (td/mts.hpp). 0
  /// (default) = off: exchange orbitals
  /// are re-registered from Psi_f every inner SCF iteration. k >= 1
  /// freezes the exchange operator across steps — rebuilt from Psi_n at
  /// step start every k-th step or when the drift bound trips, held frozen
  /// through the step's inner iterations. The cadence is counter-based and
  /// deterministic; composes with HamiltonianOptions::use_ace, which makes
  /// the frozen applies cheap (no pair solves between refreshes).
  int mts_interval = 0;
  /// Early-refresh bound on the monitored per-band subspace drift
  /// max_j (1 - |<phi_frozen_j, psi_j>|^2); exceeding it forces an exact
  /// rebuild before the cadence is due. <= 0 refreshes every step.
  double mts_drift_tol = 1e-3;
};

struct PtCnStepReport {
  int scf_iterations = 0;
  double rho_error = 0.0;
  bool converged = false;
  /// H applications in this step (the initial residual plus one per SCF
  /// iteration), each with a Fock apply when exchange is on. The paper
  /// counts 24 per step including one for the energy evaluation; here the
  /// energy needs none (FockOperator::exchange_energy).
  int fock_applies = 0;
  /// MTS: whether the exchange operator was rebuilt at this step's start
  /// (always true when MTS is off and hybrid is on), and the monitored
  /// drift vs the frozen snapshot (0 on refresh steps).
  bool exchange_refreshed = false;
  double mts_drift = 0.0;
};

class PtCnPropagator {
 public:
  PtCnPropagator(ham::Hamiltonian& hamiltonian, par::BlockPartition bands, PtCnOptions opt,
                 int comm_size);

  /// Advances psi_local from t to t + dt. Collective over comm.
  PtCnStepReport step(CMatrix& psi_local, std::span<const double> occ_global, double t,
                      const ExternalField& field, par::Comm& comm,
                      TimerRegistry* timers = nullptr);

  const PtCnOptions& options() const { return opt_; }

 private:
  ham::Hamiltonian& ham_;
  par::BlockPartition bands_;
  PtCnOptions opt_;
  par::WavefunctionTranspose transpose_;
  std::vector<std::unique_ptr<scf::AndersonMixer>> mixers_;  ///< one per local band
  /// One overlap stream per concurrently in-flight transpose: the per-
  /// iteration Psi -> G stream and the loop-invariant Psi_half stream. Each
  /// lazily dup()s its own rendezvous domain on the first step() (step()
  /// must always be called with the same communicator); their traffic is
  /// folded into the parent's stats per step.
  par::TransposeOverlap psi_ovl_;
  par::TransposeOverlap half_ovl_;
  /// G-layout blocks written at wait(). Plain members rather than arena
  /// slots: they must survive across the overlap window.
  CMatrix psi_g_;
  CMatrix half_g_;
  /// Exchange-operator MTS state (frozen snapshot + refresh cadence).
  MtsScheduler mts_;
};

/// Computes R = c_psi * Psi + c_h * (H Psi - Psi S) - c_half * Psi_half with
/// S = Psi^H (H Psi), via the Alg. 3 G-space pipeline. psi_half may be null
/// (treated as zero). Exposed for tests and the Rn evaluation.
CMatrix pt_residual(const par::WavefunctionTranspose& transpose, par::Comm& comm,
                    const CMatrix& psi_band, const CMatrix& hpsi_band,
                    const CMatrix* psi_half_band, Complex c_psi, Complex c_h, Complex c_half,
                    bool sp_comm);

/// pt_residual with Psi (and optionally Psi_half) already transposed to the
/// G layout: the form the propagator uses so those transposes can run on
/// the async lane concurrently with H Psi, and so the loop-invariant
/// Psi_half transpose is paid once per step instead of once per SCF
/// iteration. Only H Psi is transposed here (on `comm`).
CMatrix pt_residual_from_g(const par::WavefunctionTranspose& transpose, par::Comm& comm,
                           const CMatrix& psi_g, const CMatrix& hpsi_band,
                           const CMatrix* half_g, Complex c_psi, Complex c_h, Complex c_half,
                           bool sp_comm);

/// Cholesky re-orthonormalization of a band-distributed block (paper §3.4).
void orthonormalize(const par::WavefunctionTranspose& transpose, par::Comm& comm,
                    CMatrix& psi_band, bool sp_comm);

}  // namespace pwdft::td
