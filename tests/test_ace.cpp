#include <gtest/gtest.h>

#include "common/exec.hpp"
#include "core/simulation.hpp"
#include "ham/ace.hpp"
#include "ham/density.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_comm.hpp"
#include "td/field.hpp"
#include "td/ptcn.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

xc::HybridParams hse() { return xc::HybridParams{true, 0.25, 0.11}; }

/// Restores the engine width on scope exit so tests compose.
struct ThreadGuard {
  ~ThreadGuard() { exec::set_num_threads(1); }
};

TEST(Ace, ExactOnItsOwnOrbitals) {
  // The defining ACE property: VX_ACE Phi == VX Phi.
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, 6, 3);
  std::vector<double> occ(6, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(6, 1);

  ham::FockOperator fock(setup, hse());
  fock.set_orbitals(phi, occ, bands, comm);
  ham::AceOperator ace(setup);
  ace.build(fock, phi, comm);

  CMatrix y_exact(setup.n_g(), 6, Complex{0, 0});
  fock.apply_add(phi, y_exact, comm);
  CMatrix y_ace(setup.n_g(), 6, Complex{0, 0});
  ace.apply_add(phi, y_ace, comm);
  EXPECT_LT(test::max_abs_diff(y_exact, y_ace), 1e-8);
}

TEST(Ace, OperatorIsNegativeSemidefinite) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, 4, 5);
  std::vector<double> occ(4, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(4, 1);
  ham::FockOperator fock(setup, hse());
  fock.set_orbitals(phi, occ, bands, comm);
  ham::AceOperator ace(setup);
  ace.build(fock, phi, comm);

  auto x = test::random_orthonormal(setup, 4, 7);
  CMatrix y(setup.n_g(), 4, Complex{0, 0});
  ace.apply_add(x, y, comm);
  for (std::size_t j = 0; j < 4; ++j) {
    const double q = linalg::dotc({x.col(j), setup.n_g()}, {y.col(j), setup.n_g()}).real();
    EXPECT_LE(q, 1e-10);
  }
}

TEST(Ace, HermitianOnArbitraryStates) {
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, 4, 9);
  std::vector<double> occ(4, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(4, 1);
  ham::FockOperator fock(setup, hse());
  fock.set_orbitals(phi, occ, bands, comm);
  ham::AceOperator ace(setup);
  ace.build(fock, phi, comm);

  auto x = test::random_orthonormal(setup, 4, 11);
  CMatrix y(setup.n_g(), 4, Complex{0, 0});
  ace.apply_add(x, y, comm);
  CMatrix m = linalg::overlap(x, y);
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = 0; b < 4; ++b)
      EXPECT_NEAR(std::abs(m(a, b) - std::conj(m(b, a))), 0.0, 1e-10);
}

TEST(Ace, RequiresBuildBeforeApply) {
  auto setup = test::make_si8_setup(3.0, 1);
  ham::AceOperator ace(setup);
  CMatrix x(setup.n_g(), 1), y(setup.n_g(), 1);
  par::SerialComm comm;
  EXPECT_THROW(ace.apply_add(x, y, comm), Error);
}

TEST(Ace, DistributedBuildAndApplyMatchSerial) {
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, nb, 13);
  std::vector<double> occ(nb, 2.0);

  par::SerialComm serial;
  ham::FockOperator fock_ref(setup, hse());
  fock_ref.set_orbitals(phi, occ, par::BlockPartition(nb, 1), serial);
  ham::AceOperator ace_ref(setup);
  ace_ref.build(fock_ref, phi, serial);
  CMatrix y_ref(setup.n_g(), nb, Complex{0, 0});
  ace_ref.apply_add(phi, y_ref, serial);

  for (int np : {2, 4}) {
    par::ThreadGroup::run(np, [&](par::Comm& c) {
      auto setup_loc = test::make_si8_setup(3.0, 1);
      par::BlockPartition bands(nb, np);
      ham::FockOperator fock(setup_loc, hse());
      CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
      fock.set_orbitals(phi_loc, occ, bands, c);
      ham::AceOperator ace(setup_loc);
      ace.build(fock, phi_loc, c);
      CMatrix y_loc(setup_loc.n_g(), phi_loc.cols(), Complex{0, 0});
      ace.apply_add(phi_loc, y_loc, c);
      CMatrix expect = test::band_slice(y_ref, bands, c.rank());
      EXPECT_LT(test::max_abs_diff(y_loc, expect), 1e-8);
    });
  }
}

TEST(Ace, PtCnStepWithAceMatchesDirectFock) {
  // Within each PT-CN SCF iteration the exchange orbitals are the current
  // iterate, and ACE is exact on them: the trajectories must coincide.
  const std::size_t nb = 16;  // full Si8 occupancy keeps the SCF well behaved
  auto build = [&](bool use_ace) {
    auto opt = test::fast_hybrid_options();
    opt.use_ace = use_ace;
    return opt;
  };
  auto setup1 = test::make_si8_setup(3.0, 1);
  auto setup2 = test::make_si8_setup(3.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  ham::Hamiltonian h_direct(setup1, species, build(false));
  ham::Hamiltonian h_ace(setup2, species, build(true));

  auto psi0 = test::random_orthonormal(setup1, nb, 15);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);
  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-7;
  opt.max_scf = 100;
  opt.sp_comm = false;
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix psi_a = psi0, psi_b = psi0;
  td::PtCnPropagator p1(h_direct, bands, opt, 1);
  td::PtCnPropagator p2(h_ace, bands, opt, 1);
  auto r1 = p1.step(psi_a, occ, 0.0, kick, comm);
  auto r2 = p2.step(psi_b, occ, 0.0, kick, comm);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_LT(test::max_abs_diff(psi_a, psi_b), 1e-5);
}

TEST(Ace, BuildAndApplyBitIdenticalAcrossWidth) {
  // The fixed-reduction-order contract (docs/threading.md) extended to
  // ACE: build (exact Fock apply + serial dense algebra on transposed
  // G-layout blocks) and apply_add must produce identical bits whatever
  // the engine width.
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  const std::size_t nb = 6;
  CMatrix phi = test::random_orthonormal(setup, nb, 17);
  CMatrix x = test::random_orthonormal(setup, nb, 19);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix ref;
  for (std::size_t nt : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    exec::set_num_threads(nt);
    ham::FockOperator fock(setup, hse());
    fock.set_orbitals(phi, occ, bands, comm);
    ham::AceOperator ace(setup);
    ace.build(fock, phi, comm);
    CMatrix y(setup.n_g(), nb, Complex{0, 0});
    ace.apply_add(x, y, comm);
    if (ref.empty()) {
      ref = y;
    } else {
      EXPECT_EQ(test::max_abs_diff(y, ref), 0.0) << "nt=" << nt;
    }
  }
}

/// One Si8 Hamiltonian + PT-CN propagator with ACE exchange and the given
/// MTS settings (serial, full occupancy).
struct MtsHarness {
  explicit MtsHarness(int mts_interval, double drift_tol, bool use_ace = true)
      : setup(test::make_si8_setup(3.0, 1)),
        species(pseudo::PseudoSpecies::silicon(true)),
        hamiltonian(setup, species, make_opt(use_ace)),
        bands(nb, 1),
        psi(test::random_orthonormal(setup, nb, 15)),
        occ(nb, 2.0),
        kick({0.0, 0.0, 0.02}, -1.0),
        prop(hamiltonian, bands, make_pt(mts_interval, drift_tol), 1) {}
  static ham::HamiltonianOptions make_opt(bool use_ace) {
    auto o = test::fast_hybrid_options();
    o.use_ace = use_ace;
    return o;
  }
  static td::PtCnOptions make_pt(int mts_interval, double drift_tol) {
    td::PtCnOptions o;
    o.dt = 1.0;
    o.rho_tol = 1e-7;
    o.max_scf = 100;
    o.sp_comm = false;
    o.mts_interval = mts_interval;
    o.mts_drift_tol = drift_tol;
    return o;
  }
  td::PtCnStepReport step(double t) { return prop.step(psi, occ, t, kick, comm); }

  static constexpr std::size_t nb = 16;  // full Si8 occupancy
  ham::PlanewaveSetup setup;
  pseudo::PseudoSpecies species;
  ham::Hamiltonian hamiltonian;
  par::SerialComm comm;
  par::BlockPartition bands;
  CMatrix psi;
  std::vector<double> occ;
  td::DeltaKick kick;
  td::PtCnPropagator prop;
};

TEST(Mts, FreezesExchangeBetweenRefreshSteps) {
  // ACE + MTS interval 3 with the drift bound disabled: the projectors are
  // rebuilt on steps 0 and 3 only, and the frozen steps in between perform
  // ZERO exact Fock pair solves — the entire point of the compression.
  MtsHarness h(/*mts_interval=*/3, /*drift_tol=*/1e9);
  double t = 0.0;
  for (int s = 0; s < 4; ++s, t += 1.0) {
    const auto builds_before = h.hamiltonian.ace().builds();
    const auto solves_before = h.hamiltonian.fock().pair_solves();
    auto rep = h.step(t);
    EXPECT_TRUE(rep.converged) << "step " << s;
    const bool expect_refresh = (s % 3 == 0);
    EXPECT_EQ(rep.exchange_refreshed, expect_refresh) << "step " << s;
    EXPECT_EQ(h.hamiltonian.ace().builds() - builds_before, expect_refresh ? 1u : 0u)
        << "step " << s;
    if (expect_refresh) {
      EXPECT_GT(h.hamiltonian.fock().pair_solves(), solves_before) << "step " << s;
    } else {
      EXPECT_EQ(h.hamiltonian.fock().pair_solves(), solves_before) << "step " << s;
      EXPECT_GT(rep.mts_drift, 0.0) << "step " << s;
    }
  }
}

TEST(Mts, DriftBoundForcesEarlyRefresh) {
  // A zero drift tolerance trips the monitored bound on every step after
  // the first: the cadence (interval 100) never comes due, yet every step
  // must rebuild — the forced-early-refresh path.
  MtsHarness h(/*mts_interval=*/100, /*drift_tol=*/0.0);
  double t = 0.0;
  for (int s = 0; s < 3; ++s, t += 1.0) {
    const auto builds_before = h.hamiltonian.ace().builds();
    auto rep = h.step(t);
    EXPECT_TRUE(rep.converged) << "step " << s;
    EXPECT_TRUE(rep.exchange_refreshed) << "step " << s;
    EXPECT_EQ(h.hamiltonian.ace().builds() - builds_before, 1u) << "step " << s;
  }
}

TEST(Mts, TrajectoryIndependentOfInterleavedRegistrations) {
  // Per-step energy recording registers the *current* orbitals as exchange
  // orbitals between propagator steps (core::Simulation::record). The MTS
  // scheduler must detect the foreign registration through the exchange
  // serial and re-pin its frozen snapshot, so the trajectory is bit-for-bit
  // the same whether or not anything registered behind its back.
  MtsHarness clean(/*mts_interval=*/3, /*drift_tol=*/1e9);
  MtsHarness dirty(/*mts_interval=*/3, /*drift_tol=*/1e9);
  double t = 0.0;
  for (int s = 0; s < 3; ++s, t += 1.0) {
    clean.step(t);
    dirty.step(t);
    // Foreign registration with the *moved* orbitals, as energy recording
    // would do after every step.
    dirty.hamiltonian.set_exchange_orbitals(dirty.psi, dirty.occ, dirty.bands, dirty.comm);
  }
  ASSERT_EQ(clean.psi.size(), dirty.psi.size());
  EXPECT_EQ(test::max_abs_diff(clean.psi, dirty.psi), 0.0);
}

TEST(Ace, GroundStateBuildsOncePerOuterIterationPlusOne) {
  // The hybrid ground state builds the projectors once from the semi-local
  // orbitals and once at the end of each outer iteration — never twice from
  // one set of orbitals at an iteration boundary.
  core::SimulationOptions opt;
  opt.cells[0] = opt.cells[1] = opt.cells[2] = 1;  // Si8
  opt.ecut = 3.0;
  opt.dense_factor = 1;
  opt.use_ace = true;
  opt.scf.tol_rho = 1e-7;
  opt.scf.lobpcg.max_iter = 6;
  opt.scf.hybrid_outer_max = 3;
  core::Simulation sim(opt);
  const auto builds_before = sim.hamiltonian().ace().builds();
  const scf::ScfResult res = sim.ground_state();
  ASSERT_GE(res.outer_iterations, 2);
  EXPECT_EQ(sim.hamiltonian().ace().builds() - builds_before,
            static_cast<std::uint64_t>(res.outer_iterations) + 1);
}

TEST(Mts, AceRefreshCadenceFollowsRegistrationCounter) {
  // HamiltonianOptions::ace_refresh semantics, without MTS:
  // every k-th set_exchange_orbitals() rebuilds the projectors, and
  // request_ace_refresh() forces the next registration to rebuild.
  auto setup = test::make_si8_setup(3.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  auto opt = test::fast_hybrid_options();
  opt.use_ace = true;
  opt.ace_refresh = 3;
  ham::Hamiltonian h(setup, species, opt);
  const std::size_t nb = 8;
  auto phi = test::random_orthonormal(setup, nb, 21);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  for (int reg = 0; reg < 6; ++reg) {
    const auto before = h.ace().builds();
    h.set_exchange_orbitals(phi, occ, bands, comm);
    EXPECT_EQ(h.ace().builds() - before, reg % 3 == 0 ? 1u : 0u) << "registration " << reg;
  }
  h.request_ace_refresh();
  const auto before = h.ace().builds();
  h.set_exchange_orbitals(phi, occ, bands, comm);
  EXPECT_EQ(h.ace().builds() - before, 1u);
}

}  // namespace
}  // namespace pwdft
