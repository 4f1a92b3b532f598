#pragma once

/// \file cn.hpp
/// Plain Crank-Nicolson propagator in the *Schrodinger gauge* — the ablation
/// of the paper's parallel transport contribution. It solves
///   Psi_{n+1} + i dt/2 H_{n+1} Psi_{n+1} = Psi_n - i dt/2 H_n Psi_n
/// with the same per-band Anderson-mixed SCF machinery as PT-CN but WITHOUT
/// the gauge term Psi (Psi^H H Psi). Without parallel transport the orbitals
/// keep their fast trivial phase rotation e^{-i eps t}; at eps*dt = O(1) the
/// fixed-point iteration stalls or diverges, which is precisely why the PT
/// gauge is needed to reach 50 as steps (paper §2; An & Lin). See
/// bench/ablation_gauge for the head-to-head comparison.
///
/// This loop stays the paper's plain one: it mixes the raw residual, while
/// PT-CN divides its residual by the kinetic operator first (td/ptcn.hpp).
/// The gauge comparison therefore sets the engine's preconditioned PT-CN
/// against the unpreconditioned Schrodinger-gauge loop. Preconditioning
/// both was measured on CnGauge.PtNeedsFewerScfIterationsAtLargeStep (two
/// 50 as steps, LDA Si8 at Ecut 3): PT 18 vs CN 25 iterations, 1.39x,
/// against 28 vs 54 with neither preconditioned. The preconditioner removes
/// the high-G kinetic stiffness both loops share, and with it most of CN's
/// extra iterations, so a preconditioned CN would no longer show the
/// paper's §2 claim at the test's 1.5x bar.

#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "ham/hamiltonian.hpp"
#include "parallel/transpose.hpp"
#include "scf/anderson.hpp"
#include "td/field.hpp"
#include "td/ptcn.hpp"

namespace pwdft::td {

struct CnOptions {
  double dt = 0.2;
  double rho_tol = 1e-6;
  int max_scf = 40;
  std::size_t anderson_depth = 20;
  double anderson_beta = 1.0;
  bool sp_comm = false;
};

struct CnStepReport {
  int scf_iterations = 0;
  double rho_error = 0.0;
  bool converged = false;
  /// Max fixed-point residual norm observed (diagnostic for divergence).
  double max_residual_norm = 0.0;
};

class CnPropagator {
 public:
  CnPropagator(ham::Hamiltonian& hamiltonian, par::BlockPartition bands, CnOptions opt,
               int comm_size);

  /// Advances psi_local from t to t + dt. Collective over comm.
  CnStepReport step(CMatrix& psi_local, std::span<const double> occ_global, double t,
                    const ExternalField& field, par::Comm& comm,
                    TimerRegistry* timers = nullptr);

 private:
  ham::Hamiltonian& ham_;
  par::BlockPartition bands_;
  CnOptions opt_;
  par::WavefunctionTranspose transpose_;
  std::vector<std::unique_ptr<scf::AndersonMixer>> mixers_;
};

}  // namespace pwdft::td
