#include <gtest/gtest.h>

#include <cstring>

#include "comm_conformance.hpp"
#include "ham/density.hpp"
#include "ham/fock.hpp"
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
  explicit RankContext(double ecut = 3.0, bool hybrid = true, bool use_ace = false)
      : setup(test::make_si8_setup(ecut, 1)),
        species(pseudo::PseudoSpecies::silicon(true)),
        options(make_opt(hybrid, use_ace)),
        hamiltonian(setup, species, options) {}
  static ham::HamiltonianOptions make_opt(bool hybrid, bool use_ace) {
    auto o = test::fast_hybrid_options();
    o.hybrid.enabled = hybrid;
    o.use_ace = use_ace;
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

TEST_P(DistributedRanks, AceMtsPtCnStepMatchesSerialDensity) {
  // ACE exchange under MTS interval 2 across ranks: step 1 rebuilds the
  // projectors (ACE build collectives), step 2 applies the frozen
  // compressed operator behind the drift monitor's Allreduce. Every rank
  // must take the same refresh decisions, and the two-step density must
  // match the same two steps on SerialComm to the SCF tolerance.
  const int np = GetParam();
  const std::size_t nb = 16;
  RankContext ref_ctx(3.0, true, /*use_ace=*/true);
  auto psi_init = test::random_orthonormal(ref_ctx.setup, nb, 47);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);

  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-8;
  opt.max_scf = 80;
  opt.sp_comm = false;
  opt.mts_interval = 2;     // step 2 runs the frozen-exchange path
  opt.mts_drift_tol = 1e9;  // cadence only: the drift bound never trips

  par::SerialComm serial;
  CMatrix psi_ref = psi_init;
  td::PtCnPropagator prop_ref(ref_ctx.hamiltonian, par::BlockPartition(nb, 1), opt, 1);
  const auto ref0 = prop_ref.step(psi_ref, occ, 0.0, kick, serial);
  const auto ref1 = prop_ref.step(psi_ref, occ, opt.dt, kick, serial);
  ASSERT_TRUE(ref0.converged && ref1.converged);
  ASSERT_TRUE(ref0.exchange_refreshed);
  ASSERT_FALSE(ref1.exchange_refreshed);
  auto rho_ref = ham::compute_density(ref_ctx.setup, ref_ctx.hamiltonian.fft_dense(), psi_ref,
                                      occ, serial);

  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true, /*use_ace=*/true);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
    td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
    const auto r0 = prop.step(psi_loc, occ, 0.0, kick, c);
    const auto r1 = prop.step(psi_loc, occ, opt.dt, kick, c);
    EXPECT_TRUE(r0.converged);
    EXPECT_TRUE(r1.converged);
    EXPECT_TRUE(r0.exchange_refreshed) << "rank " << c.rank();
    EXPECT_FALSE(r1.exchange_refreshed) << "rank " << c.rank();
    std::span<const double> occ_loc(occ.data() + bands.offset(c.rank()),
                                    bands.count(c.rank()));
    auto rho = ham::compute_density(ctx.setup, ctx.hamiltonian.fft_dense(), psi_loc, occ_loc, c);
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

/// Multi-process acceptance: the full hybrid PT-CN step with the ranks in
/// separate OS processes over SocketComm must be bit-identical to the same
/// step on ThreadComm, and so must the Fock self-apply and the exchange
/// energy of the resulting orbitals. The thread-backed reference wavefunctions are
/// computed in the parent before the fork, so every child reads them
/// copy-on-write; any mismatch fails the child, which fails the parent
/// through SocketGroup's exit-code contract. The parameter names the rank
/// layout; the engine has one, the flat band layout.
class SocketPtCn : public ::testing::TestWithParam<const char*> {};

TEST_P(SocketPtCn, FullHybridStepBitwiseMatchesThreadComm) {
  const int np = 2;
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

  // After the step (whose Fock applies are self-applies), the self-apply
  // and the pair-density energy of the new orbitals are pinned as well.
  auto exchange_of = [](RankContext& ctx, const CMatrix& psi_loc, const std::vector<double>& occ,
                        const par::BlockPartition& bands, par::Comm& c, CMatrix& vx) {
    ctx.hamiltonian.fock().set_orbitals(psi_loc, occ, bands, c);
    vx = CMatrix(psi_loc.rows(), psi_loc.cols(), Complex{0, 0});
    ctx.hamiltonian.fock().apply_self_add(vx, c);
    return ctx.hamiltonian.fock().exchange_energy(c);
  };
  std::vector<CMatrix> psi_ref(np), vx_ref(np);
  std::vector<double> ex_ref(np);
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    RankContext ctx(3.0, true);
    par::BlockPartition bands(nb, np);
    CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
    td::PtCnPropagator prop(ctx.hamiltonian, bands, opt, np);
    auto rep = prop.step(psi_loc, occ, 0.0, kick, c);
    EXPECT_TRUE(rep.converged);
    ex_ref[c.rank()] = exchange_of(ctx, psi_loc, occ, bands, c, vx_ref[c.rank()]);
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
        auto rep = prop.step(psi_loc, occ, 0.0, kick, c);
        EXPECT_TRUE(rep.converged);
        const CMatrix& expect = psi_ref[c.rank()];
        ASSERT_EQ(psi_loc.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(psi_loc.data()[i], expect.data()[i])
              << "rank " << c.rank() << " element " << i;
        }
        CMatrix vx;
        const double ex = exchange_of(ctx, psi_loc, occ, bands, c, vx);
        const CMatrix& vx_expect = vx_ref[c.rank()];
        ASSERT_EQ(vx.size(), vx_expect.size());
        EXPECT_EQ(std::memcmp(vx.data(), vx_expect.data(), vx.size() * sizeof(Complex)), 0)
            << "self-apply, rank " << c.rank();
        EXPECT_EQ(std::memcmp(&ex, &ex_ref[c.rank()], sizeof(double)), 0)
            << "exchange energy, rank " << c.rank();
      },
      /*timeout_sec=*/600);
}

INSTANTIATE_TEST_SUITE_P(TwoProcess, SocketPtCn, ::testing::Values("Flat"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pwdft
