// Oracle: the total energy's directional derivative against H Psi.
//
// E[Psi] (ham::compute_energy: kinetic in the field's gauge, local and
// nonlocal pseudopotential, Hartree, LDA exchange-correlation, screened
// Fock exchange, Ewald) has the gradient dE/dpsi_j^* = f_j (H psi_j), so for
// any direction delta
//   dE/de [Psi + e delta] at e = 0  =  g = 2 Re sum_j f_j <delta_j | (H Psi)_j>.
// Two independent routes: central differences of the energy (the Fock part
// from FockOperator::exchange_energy, one FFT per orbital pair) and the
// Hamiltonian apply (the Fock part from the general apply_add, or from the
// self-apply apply_self_add with its mirrored diagonal block). A wrong
// factor 1/2, alpha, occupation or pair weight in either route breaks the
// agreement; every frozen golden would share it.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "ham/density.hpp"
#include "ham/energy.hpp"
#include "linalg/blas.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

TEST(EnergyOracle, CentralDifferencesConvergeToTheHamiltonianGradient) {
  auto setup = test::make_si8_setup(3.0, 1);
  const auto species = pseudo::PseudoSpecies::silicon(true);
  ham::Hamiltonian h(setup, species, test::fast_hybrid_options());  // hybrid, nonlocal on
  h.set_vector_potential({0.0, 0.0, 0.02});
  constexpr std::size_t nb = 8;
  const CMatrix psi = test::random_orthonormal(setup, nb, 101);
  const CMatrix delta = test::random_orthonormal(setup, nb, 103);
  // One band half filled: f_i in place of f_j anywhere shows.
  const std::vector<double> occ = {2.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 2.0};
  const par::BlockPartition bands(nb, 1);
  par::SerialComm comm;
  const std::size_t ng = setup.n_g();

  auto energy = [&](const CMatrix& p) {
    const auto rho = ham::compute_density(setup, h.fft_dense(), p, occ, comm);
    h.update_density(rho);
    h.set_exchange_orbitals(p, occ, bands, comm);
    return ham::compute_energy(h, p, occ, rho, comm);
  };
  auto gradient = [&](const CMatrix& hpsi) {
    double g = 0.0;
    for (std::size_t j = 0; j < nb; ++j)
      g += 2.0 * occ[j] * linalg::dotc({delta.col(j), ng}, {hpsi.col(j), ng}).real();
    return g;
  };

  // g from both Hamiltonian entry points at Psi.
  const ham::EnergyBreakdown e0 = energy(psi);
  CMatrix hpsi;
  h.apply(psi, hpsi, comm);
  const double g_apply = gradient(hpsi);
  CMatrix hpsi_self;
  h.register_and_apply(psi, occ, bands, hpsi_self, comm);
  const double g_self = gradient(hpsi_self);

  // Central differences D(e) = (E(Psi + e delta) - E(Psi - e delta)) / 2e
  // = g + c2 e^2 + c4 e^4 + ...
  constexpr std::array<double, 5> kEps = {4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4};
  std::array<double, kEps.size()> d{};
  for (std::size_t k = 0; k < kEps.size(); ++k) {
    CMatrix plus = psi, minus = psi;
    linalg::axpy(Complex{kEps[k], 0.0}, {delta.data(), delta.size()},
                 {plus.data(), plus.size()});
    linalg::axpy(Complex{-kEps[k], 0.0}, {delta.data(), delta.size()},
                 {minus.data(), minus.size()});
    d[k] = (energy(plus).total() - energy(minus).total()) / (2.0 * kEps[k]);
  }

  for (const double g : {g_apply, g_self}) {
    // Second order: the relative error falls 4x (+-10 %) per halving of e.
    std::array<double, kEps.size() - 1> ratio{};
    for (std::size_t k = 0; k + 1 < kEps.size(); ++k) {
      ratio[k] = std::abs(d[k] - g) / std::abs(d[k + 1] - g);
      EXPECT_NEAR(ratio[k], 4.0, 0.4) << "e = " << kEps[k] << ", g = " << g;
    }

    // Richardson R = (4 D(e/2) - D(e)) / 3 cancels c2, at e = 5e-4:
    //  - truncation: R - g = -c4 e^4 / 4. The ratios above bound
    //    x = c4 e^2 / c2 by |x| <= 0.14 at e = 4e-3 (a ratio of
    //    4 (1 + x) / (1 + x/4) within 4 +- 0.4), so at e = 5e-4, where x is
    //    64 times smaller, |R - g| <= 0.14/64/4 |c2| e^2 < |D(e) - g| / 1000.
    //  - roundoff: each energy component is a floating-point sum of at
    //    most n terms (n = the largest grid plus nb^2, the exchange energy
    //    summing grid points per pair and then pairs), so the energy is off
    //    by at most dE = n u S, with S the sum of the components'
    //    magnitudes and u the unit roundoff (the classic gamma_n bound on a
    //    sum; the FFTs add only a log n factor). D(h) is then off by at
    //    most dE / h, and R by (4 dE / (e/2) + dE / e) / 3 = 3 dE / e.
    const double e = kEps[3];
    const double r = (4.0 * d[4] - d[3]) / 3.0;
    const double s = std::abs(e0.kinetic) + std::abs(e0.local_ps) + std::abs(e0.nonlocal_ps) +
                     std::abs(e0.hartree) + std::abs(e0.xc) + std::abs(e0.fock) +
                     std::abs(e0.ewald);
    const double n = static_cast<double>(std::max(setup.n_dense(), setup.n_wfc()) + nb * nb);
    const double de = n * std::numeric_limits<double>::epsilon() / 2.0 * s;
    const double bound = 3.0 * de / e + std::abs(d[3] - g) / 1000.0;
    EXPECT_LE(std::abs(r - g), bound) << "g = " << g;
    std::printf("g %.15e: relative error %.3e at e = 4e-3 to %.3e at 2.5e-4, ratios %.3f %.3f "
                "%.3f %.3f; |R - g| %.3e, bound %.3e (margin %.0f)\n",
                g, std::abs(d[0] - g) / std::abs(g), std::abs(d[4] - g) / std::abs(g), ratio[0],
                ratio[1], ratio[2], ratio[3], std::abs(r - g), bound, bound / std::abs(r - g));
  }
}

}  // namespace
}  // namespace pwdft
