#pragma once

/// \file simulation.hpp
/// High-level facade used by the examples: build a silicon supercell, run
/// the hybrid ground state, propagate with PT-CN or RK4, and record
/// observables. Serial (one rank); the distributed code paths are exercised
/// directly through the module APIs (see tests/ and bench/).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ham/energy.hpp"
#include "ham/hamiltonian.hpp"
#include "ham/setup.hpp"
#include "scf/scf.hpp"
#include "td/field.hpp"
#include "td/observables.hpp"
#include "td/ptcn.hpp"
#include "td/rk4.hpp"

namespace pwdft::core {

struct SimulationOptions {
  int cells[3] = {1, 1, 1};   ///< supercell in 8-atom cubic cells
  double ecut = 10.0;         ///< Ha (paper value)
  int dense_factor = 2;       ///< density grid refinement (paper value)
  bool hybrid = true;         ///< HSE-style screened exchange
  bool nonlocal = true;       ///< synthetic KB projectors
  /// Apply exchange through ACE (default off); the projector-refresh
  /// cadence follows HamiltonianOptions::ace_refresh (k >= 1).
  bool use_ace = false;
  int ace_refresh = 1;
  xc::HybridParams hybrid_params{};
  ham::FockOptions fock{};
  scf::ScfOptions scf{};
  std::uint64_t seed = 42;
};

enum class Integrator { kPtCn, kRk4 };

struct PropagateOptions {
  Integrator integrator = Integrator::kPtCn;
  double dt_as = 50.0;  ///< time step in attoseconds
  int steps = 10;
  const td::ExternalField* field = nullptr;  ///< nullptr = no field
  bool record_energy = true;
  bool record_excitation = true;
  td::PtCnOptions ptcn{};  ///< dt is overridden from dt_as

  // --- Resume support (serve::JobEngine checkpoint/restart) -------------
  // A PT-CN step is a pure function of (psi, t) at the default exchange
  // cadence (docs/threading.md), so continuing a killed trajectory from a
  // checkpoint is exact: restore psi via restore_wavefunctions(), then
  // propagate with t0/step0 from the checkpoint meta and
  // record_initial=false. The stitched trace is bit-identical to the
  // uninterrupted run.
  double t0 = 0.0;             ///< simulation time at entry (a.u.)
  std::uint64_t step0 = 0;     ///< global index of the first step taken here
  bool record_initial = true;  ///< record the t = t0 sample (off on resume)
  /// Excitation reference: n_excited compares against these orbitals
  /// (default: psi at entry, i.e. the ground state on a fresh run). A
  /// resumed run must pass its ground-state orbitals or n_excited would be
  /// measured against the mid-trajectory restart state.
  const CMatrix* psi0_reference = nullptr;
  /// Per-step hook, called after each step is recorded with the global step
  /// index (step0 + steps taken), the trace recorded so far by this call
  /// (including the t = t0 sample when record_initial is on), and the
  /// current state. Return false to stop before the next step (cooperative
  /// preemption); the trace so far is returned as usual. The JobEngine's
  /// checkpoint cadence and kill switch both live here.
  std::function<bool(std::uint64_t step, const std::vector<td::TimePoint>& trace,
                     const CMatrix& psi, double t)>
      on_step;
};

class Simulation {
 public:
  explicit Simulation(const SimulationOptions& opt);

  /// Multi-tenant form: share an already-built PlanewaveSetup (every
  /// accessor of which is const) across co-resident Simulations instead of
  /// re-deriving the G-sphere and grids per tenant. `opt` must describe the
  /// same cell/cutoff the setup was built from; the serve::JobEngine's
  /// setup cache keys on exactly those fields.
  Simulation(std::shared_ptr<const ham::PlanewaveSetup> setup, const SimulationOptions& opt);

  const ham::PlanewaveSetup& setup() const { return *setup_; }
  /// The shared setup handle (for caching layers above this one).
  const std::shared_ptr<const ham::PlanewaveSetup>& shared_setup() const { return setup_; }
  ham::Hamiltonian& hamiltonian() { return *ham_; }
  const CMatrix& wavefunctions() const { return psi_; }
  const std::vector<double>& occupations() const { return occ_; }

  /// Runs (LDA then hybrid) SCF; must be called before propagate().
  scf::ScfResult ground_state();

  /// Installs checkpointed wavefunctions as the current state (shape must
  /// match the setup) and marks the simulation ready to propagate without
  /// an SCF run. Combined with PropagateOptions::t0/step0 this is the
  /// crash-restart entry point; see the resume notes on PropagateOptions.
  void restore_wavefunctions(const CMatrix& psi);

  /// Propagates and returns one TimePoint per step (plus the t=t0 sample
  /// unless record_initial is off).
  std::vector<td::TimePoint> propagate(const PropagateOptions& opt);

  /// Total energy of the current state (rebuilds density and exchange).
  ham::EnergyBreakdown current_energy();

 private:
  SimulationOptions opt_;
  std::shared_ptr<const ham::PlanewaveSetup> setup_;
  pseudo::PseudoSpecies species_;
  std::unique_ptr<ham::Hamiltonian> ham_;
  par::SerialComm comm_;
  CMatrix psi_;
  std::vector<double> occ_;
  bool ground_state_done_ = false;
};

}  // namespace pwdft::core
