#include <gtest/gtest.h>

#include "fft/fft3d.hpp"
#include "ham/fock.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_comm.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

xc::HybridParams hse() { return xc::HybridParams{true, 0.25, 0.11}; }

/// Independent reference for the exchange energy via the density matrix:
/// E_X = -(alpha/4) Int |P(r,r')|^2 K(r-r') dr dr' on the wavefunction grid.
double exchange_energy_reference(const ham::PlanewaveSetup& setup, const CMatrix& psi,
                                 std::span<const double> occ, double alpha, double omega) {
  const std::size_t nw = setup.n_wfc();
  const auto dims = setup.wfc_grid.dims();
  fft::Fft3D fft(dims);

  // Real-space orbitals including the 1/sqrt(Omega) normalization.
  CMatrix pr(nw, psi.cols());
  for (std::size_t j = 0; j < psi.cols(); ++j) {
    grid::GSphere::scatter({psi.col(j), setup.n_g()}, setup.map_wfc(), {pr.col(j), nw});
    fft.inverse(pr.col(j));
    linalg::scal(Complex{1.0 / std::sqrt(setup.volume()), 0.0}, {pr.col(j), nw});
  }

  // Real-space kernel K(r) = (1/Omega) sum_G K(G) e^{iG.r} on the grid.
  std::vector<Complex> kr(nw);
  std::size_t idx = 0;
  for (std::size_t z = 0; z < dims[2]; ++z) {
    const int f2 = setup.wfc_grid.freq(z, 2);
    for (std::size_t y = 0; y < dims[1]; ++y) {
      const int f1 = setup.wfc_grid.freq(y, 1);
      for (std::size_t x = 0; x < dims[0]; ++x, ++idx) {
        const auto g =
            setup.crystal.lattice().gvector(setup.wfc_grid.freq(x, 0), f1, f2);
        kr[idx] = Complex{xc::exchange_kernel(grid::norm2(g), omega), 0.0};
      }
    }
  }
  fft.inverse(kr.data());
  for (auto& v : kr) v /= setup.volume();

  // Density matrix P(r,r') = sum_i f_i psi_i(r) conj(psi_i(r')).
  const double w = setup.volume() / static_cast<double>(nw);
  double e = 0.0;
  auto wrap_delta = [&](std::size_t a, std::size_t b) {
    // Grid index of (r_a - r_b) with periodic wrap, per axis.
    const std::size_t ax = a % dims[0], ay = (a / dims[0]) % dims[1], az = a / (dims[0] * dims[1]);
    const std::size_t bx = b % dims[0], by = (b / dims[0]) % dims[1], bz = b / (dims[0] * dims[1]);
    const std::size_t dx = (ax + dims[0] - bx) % dims[0];
    const std::size_t dy = (ay + dims[1] - by) % dims[1];
    const std::size_t dz = (az + dims[2] - bz) % dims[2];
    return dx + dims[0] * (dy + dims[1] * dz);
  };
  for (std::size_t a = 0; a < nw; ++a) {
    for (std::size_t b = 0; b < nw; ++b) {
      Complex p{0, 0};
      for (std::size_t i = 0; i < psi.cols(); ++i)
        p += occ[i] * pr(a, i) * std::conj(pr(b, i));
      e += std::norm(p) * kr[wrap_delta(a, b)].real();
    }
  }
  return -alpha / 4.0 * e * w * w;
}

TEST(Fock, ExchangeEnergyMatchesDensityMatrixReference) {
  // Tiny grid (Ecut 2.5 -> 8^3 points) keeps the O(N^2) reference feasible.
  auto setup = test::make_si8_setup(2.5, 1);
  ASSERT_LE(setup.n_wfc(), 1000u);
  auto psi = test::random_orthonormal(setup, 4, 3);
  std::vector<double> occ(4, 2.0);

  ham::FockOperator fock(setup, hse());
  par::SerialComm comm;
  par::BlockPartition bands(4, 1);
  fock.set_orbitals(psi, occ, bands, comm);
  const double e_op = fock.exchange_energy(comm);
  const double e_ref = exchange_energy_reference(setup, psi, occ, 0.25, 0.11);
  EXPECT_NEAR(e_op, e_ref, 1e-8 * std::abs(e_ref));
  EXPECT_LT(e_op, 0.0);
}

TEST(Fock, OperatorIsHermitian) {
  auto setup = test::make_si8_setup(4.0, 1);
  auto phi = test::random_orthonormal(setup, 6, 5);
  auto x = test::random_orthonormal(setup, 3, 7);
  std::vector<double> occ(6, 2.0);
  ham::FockOperator fock(setup, hse());
  par::SerialComm comm;
  fock.set_orbitals(phi, occ, par::BlockPartition(6, 1), comm);

  CMatrix vx(setup.n_g(), 3, Complex{0, 0});
  fock.apply_add(x, vx, comm);
  CMatrix m = linalg::overlap(x, vx);  // <x_a | VX x_b>
  for (std::size_t a = 0; a < 3; ++a)
    for (std::size_t b = 0; b < 3; ++b)
      EXPECT_NEAR(std::abs(m(a, b) - std::conj(m(b, a))), 0.0, 1e-10);
}

TEST(Fock, EnergyScalesLinearlyInAlpha) {
  auto setup = test::make_si8_setup(4.0, 1);
  auto psi = test::random_orthonormal(setup, 4, 9);
  std::vector<double> occ(4, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(4, 1);

  ham::FockOperator f1(setup, xc::HybridParams{true, 0.25, 0.11});
  ham::FockOperator f2(setup, xc::HybridParams{true, 0.50, 0.11});
  f1.set_orbitals(psi, occ, bands, comm);
  f2.set_orbitals(psi, occ, bands, comm);
  const double e1 = f1.exchange_energy(comm);
  const double e2 = f2.exchange_energy(comm);
  EXPECT_NEAR(e2, 2.0 * e1, 1e-10 * std::abs(e1));
}

TEST(Fock, ScreeningWeakensExchangeMonotonically) {
  auto setup = test::make_si8_setup(4.0, 1);
  auto psi = test::random_orthonormal(setup, 4, 11);
  std::vector<double> occ(4, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(4, 1);
  double prev = 0.0;
  bool first = true;
  for (double omega : {0.05, 0.11, 0.3, 1.0}) {
    ham::FockOperator f(setup, xc::HybridParams{true, 0.25, omega});
    f.set_orbitals(psi, occ, bands, comm);
    const double e = f.exchange_energy(comm);
    EXPECT_LT(e, 0.0);
    if (!first) {
      EXPECT_GT(std::abs(prev), std::abs(e));  // larger omega => weaker exchange
    }
    prev = e;
    first = false;
  }
}

TEST(Fock, BatchedMatchesBandByBand) {
  auto setup = test::make_si8_setup(4.0, 1);
  auto phi = test::random_orthonormal(setup, 6, 13);
  auto x = test::random_orthonormal(setup, 5, 15);
  std::vector<double> occ(6, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(6, 1);

  ham::FockOptions batched;
  batched.batch_size = 3;
  ham::FockOptions serial_opt;
  serial_opt.batch_size = 1;

  ham::FockOperator fb(setup, hse(), batched);
  ham::FockOperator fs(setup, hse(), serial_opt);
  fb.set_orbitals(phi, occ, bands, comm);
  fs.set_orbitals(phi, occ, bands, comm);
  CMatrix yb(setup.n_g(), 5, Complex{0, 0}), ys(setup.n_g(), 5, Complex{0, 0});
  fb.apply_add(x, yb, comm);
  fs.apply_add(x, ys, comm);
  EXPECT_LT(test::max_abs_diff(yb, ys), 1e-13);
}

TEST(Fock, ZeroOccupationOrbitalsDoNotContribute) {
  auto setup = test::make_si8_setup(4.0, 1);
  auto phi = test::random_orthonormal(setup, 6, 21);
  auto x = test::random_orthonormal(setup, 2, 23);
  par::SerialComm comm;
  par::BlockPartition b6(6, 1), b4(4, 1);

  std::vector<double> occ6(6, 2.0);
  occ6[4] = 0.0;
  occ6[5] = 0.0;
  ham::FockOperator f6(setup, hse());
  f6.set_orbitals(phi, occ6, b6, comm);

  CMatrix phi4(setup.n_g(), 4);
  for (std::size_t j = 0; j < 4; ++j)
    std::copy_n(phi.col(j), setup.n_g(), phi4.col(j));
  std::vector<double> occ4(4, 2.0);
  ham::FockOperator f4(setup, hse());
  f4.set_orbitals(phi4, occ4, b4, comm);

  CMatrix y6(setup.n_g(), 2, Complex{0, 0}), y4(setup.n_g(), 2, Complex{0, 0});
  f6.apply_add(x, y6, comm);
  f4.apply_add(x, y4, comm);
  EXPECT_LT(test::max_abs_diff(y6, y4), 1e-13);
}

TEST(Fock, PairSolveCounterTracksWork) {
  auto setup = test::make_si8_setup(4.0, 1);
  auto phi = test::random_orthonormal(setup, 4, 25);
  auto x = test::random_orthonormal(setup, 4, 27);
  std::vector<double> occ(4, 2.0);
  par::SerialComm comm;
  ham::FockOperator f(setup, hse());
  f.set_orbitals(phi, occ, par::BlockPartition(4, 1), comm);
  CMatrix y(setup.n_g(), 4, Complex{0, 0});
  // The self-apply solves the 4 x 4 band block as its upper triangle.
  f.apply_self_add(y, comm);
  EXPECT_EQ(f.pair_solves(), 10u);
  EXPECT_EQ(f.broadcasts(), 4u);
  // Any other block: Ne x Ne pair solves and Ne broadcasts (Alg. 2).
  f.apply_add(x, y, comm);
  EXPECT_EQ(f.pair_solves(), 26u);
  EXPECT_EQ(f.broadcasts(), 8u);
  // The energy runs forward FFTs only: no Poisson solve.
  f.exchange_energy(comm);
  EXPECT_EQ(f.pair_solves(), 26u);
  EXPECT_EQ(f.broadcasts(), 12u);
}

/// Bands and occupations of the pair-symmetry tests: 7 bands over 3 ranks
/// gives unequal blocks (3, 2, 2). Band 1 is empty and band 4 half filled,
/// so a skip on the wrong occupation, or f_i in place of f_j, shows.
class FockRanks : public ::testing::TestWithParam<int> {
 protected:
  static constexpr std::size_t kBands = 7;
  static std::vector<double> occupations() { return {2.0, 0.0, 2.0, 2.0, 1.0, 2.0, 2.0}; }
};

TEST_P(FockRanks, SelfApplyMatchesApplyAddToRounding) {
  const int np = GetParam();
  auto setup = test::make_si8_setup(3.0, 1);
  const CMatrix phi = test::random_orthonormal(setup, kBands, 29);
  const std::vector<double> occ = occupations();
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    auto setup_loc = test::make_si8_setup(3.0, 1);
    const par::BlockPartition bands(kBands, np);
    const CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
    // Batch 1 puts every partner in its own column block (one mirrored
    // slice per block); batch 8 keeps each rank's block whole.
    for (std::size_t batch : {1u, 8u}) {
      ham::FockOptions fopt;
      fopt.batch_size = batch;
      ham::FockOperator fock(setup_loc, hse(), fopt);
      fock.set_orbitals(phi_loc, occ, bands, c);
      CMatrix y_ref(setup_loc.n_g(), phi_loc.cols(), Complex{0, 0});
      fock.apply_add(phi_loc, y_ref, c);
      CMatrix y(setup_loc.n_g(), phi_loc.cols(), Complex{0, 0});
      fock.apply_self_add(y, c);
      double y_max = 0.0;
      for (std::size_t i = 0; i < y_ref.size(); ++i)
        y_max = std::max(y_max, std::abs(y_ref.data()[i]));
      EXPECT_GT(y_max, 0.0);
      EXPECT_LE(test::max_abs_diff(y, y_ref), 1e-13 * y_max)
          << "rank " << c.rank() << " batch " << batch;
    }
  });
}

TEST_P(FockRanks, ExchangeEnergyMatchesApplyAddExpectation) {
  // E_X = 1/2 sum_j f_j <phi_j | VX phi_j>, here with VX phi from the
  // general apply: the pair-density route must agree to rounding.
  const int np = GetParam();
  auto setup = test::make_si8_setup(3.0, 1);
  const CMatrix phi = test::random_orthonormal(setup, kBands, 31);
  const std::vector<double> occ = occupations();
  par::ThreadGroup::run(np, [&](par::Comm& c) {
    auto setup_loc = test::make_si8_setup(3.0, 1);
    const par::BlockPartition bands(kBands, np);
    const CMatrix phi_loc = test::band_slice(phi, bands, c.rank());
    ham::FockOperator fock(setup_loc, hse());
    fock.set_orbitals(phi_loc, occ, bands, c);
    CMatrix vx(setup_loc.n_g(), phi_loc.cols(), Complex{0, 0});
    fock.apply_add(phi_loc, vx, c);
    double e_ref = 0.0;
    for (std::size_t j = 0; j < phi_loc.cols(); ++j)
      e_ref += 0.5 * occ[bands.offset(c.rank()) + j] *
               linalg::dotc({phi_loc.col(j), setup_loc.n_g()}, {vx.col(j), setup_loc.n_g()})
                   .real();
    c.allreduce_sum(&e_ref, 1);
    const double e = fock.exchange_energy(c);
    EXPECT_LT(e, 0.0);
    EXPECT_NEAR(e, e_ref, 1e-12 * std::abs(e_ref)) << "rank " << c.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(Np, FockRanks, ::testing::Values(1, 2, 3));

TEST(Fock, RequiresOrbitalsBeforeApply) {
  auto setup = test::make_si8_setup(4.0, 1);
  ham::FockOperator f(setup, hse());
  CMatrix x(setup.n_g(), 1), y(setup.n_g(), 1);
  par::SerialComm comm;
  EXPECT_THROW(f.apply_add(x, y, comm), Error);
}

}  // namespace
}  // namespace pwdft
