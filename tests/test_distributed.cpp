#include <gtest/gtest.h>

#include "comm_conformance.hpp"
#include "ham/density.hpp"
#include "ham/fock.hpp"
#include "parallel/hier_comm.hpp"
#include "parallel/thread_comm.hpp"
#include "parallel/transpose.hpp"
#include "scf/scf.hpp"
#include "td/field.hpp"
#include "td/observables.hpp"
#include "td/ptcn.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

/// Builds the per-rank context (setup + Hamiltonian); every rank owns its
/// own FFT plans and Hamiltonian, exactly as every MPI rank of PWDFT does.
struct RankContext {
  explicit RankContext(double ecut = 3.0, bool hybrid = true)
      : setup(test::make_si8_setup(ecut, 1)),
        species(pseudo::PseudoSpecies::silicon(true)),
        options(make_opt(hybrid)),
        hamiltonian(setup, species, options) {}
  static ham::HamiltonianOptions make_opt(bool hybrid) {
    auto o = test::fast_hybrid_options();
    o.hybrid.enabled = hybrid;
    return o;
  }
  ham::PlanewaveSetup setup;
  pseudo::PseudoSpecies species;
  ham::HamiltonianOptions options;
  ham::Hamiltonian hamiltonian;
};

class DistributedRanks : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRanks, FockApplyMatchesSerialBitwise) {
  const int np = GetParam();
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, nb, 3);
  auto x = test::random_orthonormal(setup, nb, 5);
  std::vector<double> occ(nb, 2.0);

  // Serial reference.
  par::SerialComm serial;
  ham::FockOperator fock_ref(setup, xc::HybridParams{true, 0.25, 0.11});
  fock_ref.set_orbitals(phi, occ, par::BlockPartition(nb, 1), serial);
  CMatrix y_ref(setup.n_g(), nb, Complex{0, 0});
  fock_ref.apply_add(x, y_ref, serial);

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
    CMatrix x_loc = test::band_slice(x, bands, c.rank());
    ham::FockOperator fock(ctx.setup, xc::HybridParams{true, 0.25, 0.11});
    fock.set_orbitals(phi_loc, occ, bands, c);
    CMatrix y_loc(ctx.setup.n_g(), x_loc.cols(), Complex{0, 0});
    fock.apply_add(x_loc, y_loc, c);
    CMatrix y_expect = test::band_slice(y_ref, bands, c.rank());
    // Double-precision broadcast preserves every bit; the pair loop order
    // per local band is identical to serial.
    EXPECT_LT(test::max_abs_diff(y_loc, y_expect), 1e-14);
  });
}

TEST_P(DistributedRanks, FockSinglePrecisionCommStaysAccurate) {
  const int np = GetParam();
  if (np == 1) GTEST_SKIP() << "SP path only converts on the wire";
  const std::size_t nb = 6;
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, nb, 7);
  std::vector<double> occ(nb, 2.0);

  par::SerialComm serial;
  ham::FockOperator fock_ref(setup, xc::HybridParams{true, 0.25, 0.11});
  fock_ref.set_orbitals(phi, occ, par::BlockPartition(nb, 1), serial);
  CMatrix y_ref(setup.n_g(), nb, Complex{0, 0});
  fock_ref.apply_add(phi, y_ref, serial);

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    ham::FockOptions fopt;
    fopt.single_precision_comm = true;  // paper §3.2 optimization 4
    ham::FockOperator fock(ctx.setup, xc::HybridParams{true, 0.25, 0.11}, fopt);
    CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
    fock.set_orbitals(phi_loc, occ, bands, c);
    CMatrix y_loc(ctx.setup.n_g(), phi_loc.cols(), Complex{0, 0});
    fock.apply_add(phi_loc, y_loc, c);
    CMatrix y_expect = test::band_slice(y_ref, bands, c.rank());
    // Float rounding on the wire, double compute: error stays ~1e-7
    // ("negligible changes in the accuracy", paper §3.2).
    EXPECT_LT(test::max_abs_diff(y_loc, y_expect), 5e-6);
    EXPECT_GT(test::max_abs_diff(y_loc, y_expect), 0.0);
  });
}

TEST_P(DistributedRanks, BcastVolumeMatchesPaperFormula) {
  // Paper §3.2: total Fock broadcast volume is Np * NG * Ne; equivalently
  // each rank receives (Ne - Ne_local) * NG coefficients per application.
  const int np = GetParam();
  if (np == 1) GTEST_SKIP() << "no wire traffic on one rank";
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, nb, 11);
  std::vector<double> occ(nb, 2.0);
  const std::size_t nw = setup.n_wfc();

  auto stats = par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    ham::FockOperator fock(ctx.setup, xc::HybridParams{true, 0.25, 0.11});
    CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
    fock.set_orbitals(phi_loc, occ, bands, c);
    CMatrix y_loc(ctx.setup.n_g(), phi_loc.cols(), Complex{0, 0});
    fock.apply_add(phi_loc, y_loc, c);
  });
  for (int r = 0; r < np; ++r) {
    par::BlockPartition bands(nb, np);
    const std::size_t expect = (nb - bands.count(r)) * nw * sizeof(Complex);
    EXPECT_EQ(stats[r].get(par::CommOp::kBcast).bytes, expect) << "rank " << r;
    EXPECT_EQ(stats[r].get(par::CommOp::kBcast).calls, nb);
  }
}

TEST_P(DistributedRanks, PtResidualMatchesSerial) {
  const int np = GetParam();
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, nb, 13);
  auto hpsi = test::random_orthonormal(setup, nb, 15);
  auto half = test::random_orthonormal(setup, nb, 17);

  par::SerialComm serial;
  par::WavefunctionTranspose tr1(par::BlockPartition(setup.n_g(), 1),
                                 par::BlockPartition(nb, 1));
  const Complex ch{0.0, 0.5};
  CMatrix r_ref = td::pt_residual(tr1, serial, psi, hpsi, &half, Complex{1, 0}, ch,
                                  Complex{1, 0}, false);

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    auto setup_loc = test::make_si8_setup(3.0, 1);
    par::BlockPartition bands(nb, np);
    par::WavefunctionTranspose tr(par::BlockPartition(setup_loc.n_g(), np), bands);
    CMatrix psi_loc = test::band_slice(psi, bands, c.rank());
    CMatrix hpsi_loc = test::band_slice(hpsi, bands, c.rank());
    CMatrix half_loc = test::band_slice(half, bands, c.rank());
    CMatrix r = td::pt_residual(tr, c, psi_loc, hpsi_loc, &half_loc, Complex{1, 0}, ch,
                                Complex{1, 0}, false);
    CMatrix r_expect = test::band_slice(r_ref, bands, c.rank());
    EXPECT_LT(test::max_abs_diff(r, r_expect), 1e-10);
  });
}

TEST_P(DistributedRanks, OrthonormalizeMatchesSerial) {
  const int np = GetParam();
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, nb, 19);
  for (std::size_t i = 0; i < setup.n_g(); ++i) psi(i, 2) += 0.3 * psi(i, 0);

  par::SerialComm serial;
  par::WavefunctionTranspose tr1(par::BlockPartition(setup.n_g(), 1),
                                 par::BlockPartition(nb, 1));
  CMatrix psi_ref = psi;
  td::orthonormalize(tr1, serial, psi_ref, false);

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    auto setup_loc = test::make_si8_setup(3.0, 1);
    par::BlockPartition bands(nb, np);
    par::WavefunctionTranspose tr(par::BlockPartition(setup_loc.n_g(), np), bands);
    CMatrix psi_loc = test::band_slice(psi, bands, c.rank());
    td::orthonormalize(tr, c, psi_loc, false);
    CMatrix expect = test::band_slice(psi_ref, bands, c.rank());
    EXPECT_LT(test::max_abs_diff(psi_loc, expect), 1e-10);
  });
}

TEST_P(DistributedRanks, FullPtCnStepMatchesSerialDensity) {
  const int np = GetParam();
  const std::size_t nb = 16;
  // Serial reference: one hybrid PT-CN step from a deterministic state.
  RankContext ref_ctx(3.0, true);
  auto psi_init = test::random_orthonormal(ref_ctx.setup, nb, 21);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);

  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-8;
  opt.max_scf = 80;
  opt.sp_comm = false;

  par::SerialComm serial;
  CMatrix psi_ref = psi_init;
  td::PtCnPropagator prop_ref(ref_ctx.hamiltonian, par::BlockPartition(nb, 1), opt, 1);
  auto rep_ref = prop_ref.step(psi_ref, occ, 0.0, kick, serial);
  ASSERT_TRUE(rep_ref.converged);
  auto rho_ref = ham::compute_density(ref_ctx.setup, ref_ctx.hamiltonian.fft_dense(), psi_ref,
                                      occ, serial);

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
    td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
    auto rep = prop.step(psi_loc, occ, 0.0, kick, c);
    EXPECT_TRUE(rep.converged);
    std::span<const double> occ_loc(occ.data() + bands.offset(c.rank()),
                                    bands.count(c.rank()));
    auto rho = ham::compute_density(ctx.setup, ctx.hamiltonian.fft_dense(), psi_loc, occ_loc, c);
    // Allreduce summation order differs from serial; the converged fixed
    // point is the same to about the SCF tolerance.
    EXPECT_LT(ham::density_error(ctx.setup, rho, rho_ref), 5e-6);
  });
}

TEST_P(DistributedRanks, ExcitedElectronsMatchesSerial) {
  const int np = GetParam();
  const std::size_t nb = 6;
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi0 = test::random_orthonormal(setup, nb, 23);
  auto psi1 = test::random_orthonormal(setup, nb, 25);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm serial;
  const double ref =
      td::excited_electrons(setup, par::BlockPartition(nb, 1), psi0, psi1, occ, serial);
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    auto setup_loc = test::make_si8_setup(3.0, 1);
    par::BlockPartition bands(nb, np);
    const double v = td::excited_electrons(setup_loc, bands,
                                           test::band_slice(psi0, bands, c.rank()),
                                           test::band_slice(psi1, bands, c.rank()), occ, c);
    EXPECT_NEAR(v, ref, 1e-9);
  });
}

INSTANTIATE_TEST_SUITE_P(Np, DistributedRanks, ::testing::Values(1, 2, 3, 4));

/// Band-group x grid-rank layouts of the hierarchical communicator
/// (paper §3.1, Fig. 1). Every test pins results across the 2D layouts
/// against the flat (1D) layout at the same world size — bitwise where the
/// determinism contract promises it.
struct HierLayout {
  int band_groups;
  int grid_ranks;
  int np() const { return band_groups * grid_ranks; }
};

class HierLayouts : public ::testing::TestWithParam<HierLayout> {};

TEST_P(HierLayouts, DensityAllreduceBitwiseMatchesFlat) {
  // The density Allreduce is the reduction that must stay bit-identical
  // when it runs through HierComm's staged (grid -> band -> ordered fold)
  // path instead of the flat rendezvous.
  const auto layout = GetParam();
  const int np = layout.np();
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto psi = test::random_orthonormal(setup, nb, 31);
  std::vector<double> occ(nb, 2.0);

  std::vector<std::vector<double>> rho_flat(np), rho_hier(np);
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, false);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi, bands, c.rank());
    std::span<const double> occ_loc(occ.data() + bands.offset(c.rank()), bands.count(c.rank()));
    rho_flat[c.rank()] =
        ham::compute_density(ctx.setup, ctx.hamiltonian.fft_dense(), psi_loc, occ_loc, c);
    par::HierComm h(c, layout.band_groups);
    rho_hier[c.rank()] =
        ham::compute_density(ctx.setup, ctx.hamiltonian.fft_dense(), psi_loc, occ_loc, h);
  });
  for (int r = 0; r < np; ++r) {
    ASSERT_EQ(rho_hier[r].size(), rho_flat[r].size());
    for (std::size_t i = 0; i < rho_flat[r].size(); ++i)
      EXPECT_EQ(rho_hier[r][i], rho_flat[r][i]) << "rank " << r << " i " << i;
  }
}

TEST_P(HierLayouts, GridTransposeMatchesSlicedReference) {
  // Within one band group the wavefunction transpose runs on grid() — a
  // P_g-rank rendezvous — and the groups transpose concurrently. The result
  // must be the exact slice of the group's band block.
  const auto layout = GetParam();
  const int np = layout.np();
  const std::size_t ng = 30, nb = 8;
  CMatrix full(ng, nb);
  Rng rng(53);
  for (std::size_t i = 0; i < full.size(); ++i) full.data()[i] = rng.complex_normal();

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    par::HierComm h(c, layout.band_groups);
    const par::BlockPartition groups = h.group_bands(nb);
    // My group's band slice of the global block.
    CMatrix group_full(ng, groups.count(h.band_group()));
    for (std::size_t j = 0; j < group_full.cols(); ++j)
      for (std::size_t i = 0; i < ng; ++i)
        group_full(i, j) = full(i, groups.offset(h.band_group()) + j);

    par::BlockPartition bands(group_full.cols(), h.n_grid_ranks());
    par::BlockPartition gvecs(ng, h.n_grid_ranks());
    par::WavefunctionTranspose tr(gvecs, bands);
    CMatrix band_local = test::band_slice(group_full, bands, h.grid_rank());
    CMatrix g_local, back;
    tr.band_to_g(h.grid(), band_local, g_local, false);
    ASSERT_EQ(g_local.rows(), gvecs.count(h.grid_rank()));
    ASSERT_EQ(g_local.cols(), group_full.cols());
    for (std::size_t j = 0; j < g_local.cols(); ++j)
      for (std::size_t i = 0; i < g_local.rows(); ++i)
        EXPECT_EQ(g_local(i, j), group_full(gvecs.offset(h.grid_rank()) + i, j));
    tr.g_to_band(h.grid(), g_local, back, false);
    for (std::size_t i = 0; i < back.size(); ++i)
      EXPECT_EQ(back.data()[i], band_local.data()[i]);
    h.merge_substats();
  });
}

TEST_P(HierLayouts, FullPtCnStepOnHierCommBitwiseMatchesFlat) {
  // The whole propagator — density, Fock broadcasts, overlap transposes,
  // Anderson, orthonormalization — run on the hierarchical communicator
  // must reproduce the flat layout bit for bit (the staged allreduce is the
  // only reduction whose path changes, and it is order-preserving).
  const auto layout = GetParam();
  const int np = layout.np();
  const std::size_t nb = 8;
  RankContext ref_ctx(3.0, true);
  auto psi_init = test::random_orthonormal(ref_ctx.setup, nb, 33);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);
  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-7;
  opt.max_scf = 60;
  opt.sp_comm = false;

  std::vector<CMatrix> psi_flat(np), psi_hier(np);
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
    td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
    auto rep = prop.step(psi_loc, occ, 0.0, kick, c);
    EXPECT_TRUE(rep.converged);
    psi_flat[c.rank()] = std::move(psi_loc);
  });
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
    par::HierComm h(c, layout.band_groups);
    td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
    auto rep = prop.step(psi_loc, occ, 0.0, kick, h);
    EXPECT_TRUE(rep.converged);
    psi_hier[c.rank()] = std::move(psi_loc);
  });
  for (int r = 0; r < np; ++r) {
    ASSERT_EQ(psi_hier[r].size(), psi_flat[r].size());
    for (std::size_t i = 0; i < psi_flat[r].size(); ++i)
      EXPECT_EQ(psi_hier[r].data()[i], psi_flat[r].data()[i]) << "rank " << r;
  }
}

TEST_P(HierLayouts, AceBuildAndApplyBitwiseMatchesFlat) {
  // ACE build (exact Fock apply + transposes + small Allreduce) and
  // apply_add (two transposes + one Allreduce) on the hierarchical
  // communicator must reproduce the flat layout bit for bit: HierComm's
  // staged allreduce is order-preserving and the transposes are exact
  // permutations, so the serial dense algebra sees identical inputs.
  const auto layout = GetParam();
  const int np = layout.np();
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  auto phi = test::random_orthonormal(setup, nb, 41);
  auto x = test::random_orthonormal(setup, nb, 43);
  std::vector<double> occ(nb, 2.0);

  auto run = [&](bool hier, std::vector<CMatrix>& out) {
    par::ThreadGroup::run(np, [&](par::Comm& c) {
      RankContext ctx(3.0, true);
      par::BlockPartition bands(nb, np);
      CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
      CMatrix x_loc = test::band_slice(x, bands, c.rank());
      ham::FockOperator fock(ctx.setup, xc::HybridParams{true, 0.25, 0.11});
      ham::AceOperator ace(ctx.setup);
      CMatrix y_loc(ctx.setup.n_g(), x_loc.cols(), Complex{0, 0});
      if (hier) {
        par::HierComm h(c, layout.band_groups);
        fock.set_orbitals(phi_loc, occ, bands, h);
        ace.build(fock, phi_loc, h);
        ace.apply_add(x_loc, y_loc, h);
      } else {
        fock.set_orbitals(phi_loc, occ, bands, c);
        ace.build(fock, phi_loc, c);
        ace.apply_add(x_loc, y_loc, c);
      }
      out[c.rank()] = std::move(y_loc);
    });
  };
  std::vector<CMatrix> y_flat(np), y_hier(np);
  run(false, y_flat);
  run(true, y_hier);
  for (int r = 0; r < np; ++r) {
    ASSERT_EQ(y_hier[r].size(), y_flat[r].size());
    for (std::size_t i = 0; i < y_flat[r].size(); ++i)
      EXPECT_EQ(y_hier[r].data()[i], y_flat[r].data()[i]) << "rank " << r;
  }
}

TEST_P(HierLayouts, AceMtsPtCnStepOnHierCommBitwiseMatchesFlat) {
  // The ACE-mode PT-CN step under MTS (projector rebuild at step start,
  // frozen compressed applies through the inner loop) across layouts: the
  // drift monitor's Allreduce, the ACE build/apply collectives, and every
  // legacy reduction must keep the trajectory bit-identical to flat.
  const auto layout = GetParam();
  const int np = layout.np();
  const std::size_t nb = 8;
  RankContext ref_ctx(3.0, true);
  auto psi_init = test::random_orthonormal(ref_ctx.setup, nb, 47);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);
  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-6;
  opt.max_scf = 60;
  opt.sp_comm = false;
  opt.mts_interval = 2;  // second step runs the frozen-exchange path
  opt.mts_drift_tol = 1e9;

  auto make_ctx_opt = [] {
    auto o = RankContext::make_opt(true);
    o.use_ace = true;
    return o;
  };
  auto run = [&](bool hier, std::vector<CMatrix>& out) {
    par::ThreadGroup::run(np, [&](par::Comm& c) {
      ham::PlanewaveSetup setup_loc = test::make_si8_setup(3.0, 1);
      auto species = pseudo::PseudoSpecies::silicon(true);
      ham::Hamiltonian hamiltonian(setup_loc, species, make_ctx_opt());
      par::BlockPartition bands(nb, np);
      CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
      td::PtCnPropagator prop(hamiltonian, bands, opt, np);
      std::unique_ptr<par::HierComm> h;
      par::Comm* use = &c;
      if (hier) {
        h = std::make_unique<par::HierComm>(c, layout.band_groups);
        use = h.get();
      }
      auto r0 = prop.step(psi_loc, occ, 0.0, kick, *use);
      auto r1 = prop.step(psi_loc, occ, 1.0, kick, *use);
      EXPECT_TRUE(r0.exchange_refreshed);
      EXPECT_FALSE(r1.exchange_refreshed);
      out[c.rank()] = std::move(psi_loc);
    });
  };
  std::vector<CMatrix> psi_flat(np), psi_hier(np);
  run(false, psi_flat);
  run(true, psi_hier);
  for (int r = 0; r < np; ++r) {
    ASSERT_EQ(psi_hier[r].size(), psi_flat[r].size());
    for (std::size_t i = 0; i < psi_flat[r].size(); ++i)
      EXPECT_EQ(psi_hier[r].data()[i], psi_flat[r].data()[i]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, HierLayouts,
                         ::testing::Values(HierLayout{1, 4}, HierLayout{2, 2},
                                           HierLayout{4, 1}, HierLayout{2, 1},
                                           HierLayout{1, 1}),
                         [](const ::testing::TestParamInfo<HierLayout>& info) {
                           return "Layout" + std::to_string(info.param.band_groups) + "x" +
                                  std::to_string(info.param.grid_ranks);
                         });

/// Multi-process acceptance: the full hybrid PT-CN step with the ranks in
/// separate OS processes over SocketComm — flat and through HierComm (2x1
/// band groups and 1x2 grid ranks) — must be bit-identical to the same
/// step on ThreadComm. The thread-backed reference wavefunctions are
/// computed in the parent before the fork, so every child reads them
/// copy-on-write; any mismatch fails the child, which fails the parent
/// through SocketGroup's exit-code contract.
struct SocketPtCnCase {
  int band_groups;  ///< 0 = flat SocketComm (no HierComm wrapper)
};

class SocketPtCn : public ::testing::TestWithParam<SocketPtCnCase> {};

TEST_P(SocketPtCn, FullHybridStepBitwiseMatchesThreadComm) {
  const int np = 2;
  const int bg = GetParam().band_groups;
  const std::size_t nb = 8;
  RankContext ref_ctx(3.0, true);
  auto psi_init = test::random_orthonormal(ref_ctx.setup, nb, 61);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);
  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-7;
  opt.max_scf = 60;
  opt.sp_comm = false;

  std::vector<CMatrix> psi_ref(np);
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
    td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
    auto rep = prop.step(psi_loc, occ, 0.0, kick, c);
    EXPECT_TRUE(rep.converged);
    psi_ref[c.rank()] = std::move(psi_loc);
  });
  ASSERT_FALSE(::testing::Test::HasFailure());

  test::run_backend(
      test::CommBackend::kSocket, np,
      [&](par::Comm& c) {
        RankContext ctx(3.0, true);
        par::BlockPartition bands(nb, np);
        CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
        td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
        std::unique_ptr<par::HierComm> h;
        par::Comm* use = &c;
        if (bg > 0) {
          h = std::make_unique<par::HierComm>(c, bg);
          use = h.get();
        }
        auto rep = prop.step(psi_loc, occ, 0.0, kick, *use);
        EXPECT_TRUE(rep.converged);
        const CMatrix& expect = psi_ref[c.rank()];
        ASSERT_EQ(psi_loc.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(psi_loc.data()[i], expect.data()[i])
              << "rank " << c.rank() << " element " << i;
        }
      },
      /*timeout_sec=*/600);
}

INSTANTIATE_TEST_SUITE_P(TwoProcess, SocketPtCn,
                         ::testing::Values(SocketPtCnCase{0}, SocketPtCnCase{2},
                                           SocketPtCnCase{1}),
                         [](const ::testing::TestParamInfo<SocketPtCnCase>& info) {
                           return info.param.band_groups == 0
                                      ? std::string("Flat")
                                      : "Hier" + std::to_string(info.param.band_groups) + "x" +
                                            std::to_string(2 / info.param.band_groups);
                         });

}  // namespace
}  // namespace pwdft
