#pragma once

/// \file energy.hpp
/// Total-energy assembly for the hybrid Kohn-Sham functional:
///   E = T_s + E_loc + E_nl + E_H + E_xc(LDA) + E_X(screened Fock) + E_II.

#include <span>

#include "ham/hamiltonian.hpp"
#include "linalg/matrix.hpp"
#include "parallel/comm.hpp"

namespace pwdft::ham {

struct EnergyBreakdown {
  double kinetic = 0.0;
  double local_ps = 0.0;
  double nonlocal_ps = 0.0;
  double hartree = 0.0;
  double xc = 0.0;
  double fock = 0.0;
  double ewald = 0.0;
  double total() const {
    return kinetic + local_ps + nonlocal_ps + hartree + xc + fock + ewald;
  }
};

/// Evaluates the breakdown for band-distributed orbitals with a consistent
/// (psi, rho) pair. When the hybrid term is enabled the Fock orbitals must
/// already be set to psi: the exchange energy is read from them by
/// FockOperator::exchange_energy, one forward FFT per unordered orbital
/// pair, where the paper budgets "+1 Fock apply for total energy
/// evaluation" per step. Collective.
EnergyBreakdown compute_energy(Hamiltonian& hamiltonian, const CMatrix& psi_local,
                               std::span<const double> occ_local, std::span<const double> rho,
                               par::Comm& comm);

}  // namespace pwdft::ham
