#include "ham/energy.hpp"

#include "common/check.hpp"
#include "ham/density.hpp"

namespace pwdft::ham {

EnergyBreakdown compute_energy(Hamiltonian& hamiltonian, const CMatrix& psi_local,
                               std::span<const double> occ_local, std::span<const double> rho,
                               par::Comm& comm) {
  const auto& setup = hamiltonian.setup();
  const std::size_t ng = setup.n_g();
  const std::size_t nd = setup.n_dense();
  PWDFT_CHECK(psi_local.cols() == occ_local.size(), "compute_energy: occupation mismatch");
  PWDFT_CHECK(rho.size() == nd, "compute_energy: density size mismatch");

  EnergyBreakdown e;

  // Band-local pieces: kinetic (sphere sum) and nonlocal (dense real space).
  // energy_contribution(P, w) returns sum_p D |w * sum_r beta P|^2; with
  // psi(r) = P(r)/sqrt(Omega) the physical matrix element is
  // <beta|psi> = w * sum_r beta P / sqrt(Omega), so divide by Omega.
  std::vector<Complex> grid_work(nd);
  const auto& kin = hamiltonian.kinetic();
  const double w = setup.weight_dense();
  const double inv_vol = 1.0 / setup.volume();
  double band_acc[2] = {0.0, 0.0};
  for (std::size_t j = 0; j < psi_local.cols(); ++j) {
    const Complex* c = psi_local.col(j);
    double t = 0.0;
    for (std::size_t i = 0; i < ng; ++i) t += kin[i] * std::norm(c[i]);
    band_acc[0] += occ_local[j] * t;

    if (hamiltonian.nonlocal()) {
      grid::GSphere::scatter({c, ng}, setup.map_dense(), grid_work);
      hamiltonian.fft_dense().inverse(grid_work.data());
      band_acc[1] +=
          occ_local[j] * hamiltonian.nonlocal()->energy_contribution(grid_work, w) * inv_vol;
    }
  }
  comm.allreduce_sum(band_acc, 2);
  e.kinetic = band_acc[0];
  e.nonlocal_ps = band_acc[1];

  // Grid functionals (density replicated on every rank => local sums).
  double e_loc = 0.0, e_xc = 0.0, e_h = 0.0;
  const auto& vloc = hamiltonian.v_local_ps();
  const auto& eps = hamiltonian.eps_xc();
  const auto& vh = hamiltonian.v_hartree();
  for (std::size_t i = 0; i < nd; ++i) {
    e_loc += vloc[i] * rho[i];
    e_xc += eps[i] * rho[i];
    e_h += vh[i] * rho[i];
  }
  e.local_ps = e_loc * w;
  e.xc = e_xc * w;
  e.hartree = 0.5 * e_h * w;

  if (hamiltonian.hybrid_enabled()) {
    e.fock = hamiltonian.fock().exchange_energy(comm);
  }
  e.ewald = hamiltonian.ewald_energy();
  return e;
}

}  // namespace pwdft::ham
