#include "core/simulation.hpp"

#include "common/check.hpp"
#include "common/timer.hpp"
#include "ham/density.hpp"

namespace pwdft::core {

Simulation::Simulation(const SimulationOptions& opt)
    : Simulation(std::make_shared<const ham::PlanewaveSetup>(
                     crystal::Crystal::silicon_supercell(opt.cells[0], opt.cells[1],
                                                         opt.cells[2]),
                     opt.ecut, opt.dense_factor),
                 opt) {}

Simulation::Simulation(std::shared_ptr<const ham::PlanewaveSetup> setup,
                       const SimulationOptions& opt)
    : opt_(opt),
      setup_(std::move(setup)),
      species_(pseudo::PseudoSpecies::silicon(opt.nonlocal)) {
  ham::HamiltonianOptions hopt;
  hopt.hybrid = opt.hybrid_params;
  hopt.hybrid.enabled = opt.hybrid;
  hopt.fock = opt.fock;
  hopt.use_nonlocal = opt.nonlocal;
  hopt.use_ace = opt.use_ace;
  hopt.ace_refresh = opt.ace_refresh;
  ham_ = std::make_unique<ham::Hamiltonian>(*setup_, species_, hopt);
  occ_.assign(setup_->n_bands(), 2.0);
}

scf::ScfResult Simulation::ground_state() {
  scf::GroundStateSolver solver(*setup_, *ham_);
  psi_ = solver.initial_guess(setup_->n_bands(), opt_.seed);
  scf::ScfResult res = solver.solve(psi_, occ_, opt_.scf);
  ground_state_done_ = true;
  return res;
}

void Simulation::restore_wavefunctions(const CMatrix& psi) {
  PWDFT_CHECK(psi.rows() == setup_->n_g() && psi.cols() == setup_->n_bands(),
              "Simulation: restored wavefunctions have shape "
                  << psi.rows() << "x" << psi.cols() << ", this run needs " << setup_->n_g()
                  << "x" << setup_->n_bands());
  psi_ = psi;
  ground_state_done_ = true;
}

ham::EnergyBreakdown Simulation::current_energy() {
  PWDFT_CHECK(ground_state_done_, "Simulation: run ground_state() first");
  auto rho = ham::compute_density(*setup_, ham_->fft_dense(), psi_, occ_, comm_);
  ham_->update_density(rho);
  par::BlockPartition bands(psi_.cols(), 1);
  if (ham_->hybrid_enabled()) ham_->set_exchange_orbitals(psi_, occ_, bands, comm_);
  return ham::compute_energy(*ham_, psi_, occ_, rho, comm_);
}

std::vector<td::TimePoint> Simulation::propagate(const PropagateOptions& opt) {
  PWDFT_CHECK(ground_state_done_, "Simulation: run ground_state() first");
  const double dt = constants::attoseconds_to_au(opt.dt_as);
  par::BlockPartition bands(psi_.cols(), 1);

  td::ZeroField zero;
  const td::ExternalField& field = opt.field ? *opt.field : zero;

  td::PtCnOptions pt_opt = opt.ptcn;
  pt_opt.dt = dt;
  td::PtCnPropagator ptcn(*ham_, bands, pt_opt, comm_.size());
  td::Rk4Propagator rk4(*ham_, bands, td::Rk4Options{dt});

  const CMatrix psi0 = opt.psi0_reference ? *opt.psi0_reference : psi_;
  std::vector<td::TimePoint> trace;
  trace.reserve(opt.steps + 1);

  auto record = [&](double t, int scf_iters, double rho_err, double wall, bool refreshed,
                    double drift) {
    td::TimePoint p;
    p.t = t;
    p.exchange_refreshed = refreshed;
    p.mts_drift = drift;
    const grid::Vec3 a = field.vector_potential(t);
    ham_->set_vector_potential(a);
    p.current = td::compute_current(*setup_, psi_, occ_, a, comm_);
    if (opt.record_excitation)
      p.n_excited = td::excited_electrons(*setup_, bands, psi0, psi_, occ_, comm_);
    if (opt.record_energy) {
      auto rho = ham::compute_density(*setup_, ham_->fft_dense(), psi_, occ_, comm_);
      ham_->update_density(rho);
      if (ham_->hybrid_enabled()) ham_->set_exchange_orbitals(psi_, occ_, bands, comm_);
      p.energy = ham::compute_energy(*ham_, psi_, occ_, rho, comm_).total();
    }
    p.scf_iterations = scf_iters;
    p.rho_error = rho_err;
    p.wall_seconds = wall;
    trace.push_back(p);
  };

  if (opt.record_initial) record(opt.t0, 0, 0.0, 0.0, false, 0.0);
  double t = opt.t0;
  for (int s = 0; s < opt.steps; ++s) {
    WallTimer timer;
    int scf_iters = 0;
    double rho_err = 0.0;
    bool refreshed = false;
    double drift = 0.0;
    if (opt.integrator == Integrator::kPtCn) {
      auto rep = ptcn.step(psi_, occ_, t, field, comm_);
      scf_iters = rep.scf_iterations;
      rho_err = rep.rho_error;
      refreshed = rep.exchange_refreshed;
      drift = rep.mts_drift;
    } else {
      rk4.step(psi_, occ_, t, field, comm_);
    }
    t += dt;
    record(t, scf_iters, rho_err, timer.seconds(), refreshed, drift);
    const std::uint64_t global_step = opt.step0 + static_cast<std::uint64_t>(s) + 1;
    if (opt.on_step && !opt.on_step(global_step, trace, psi_, t)) break;
  }
  return trace;
}

}  // namespace pwdft::core
