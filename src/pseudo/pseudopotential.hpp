#pragma once

/// \file pseudopotential.hpp
/// Analytic norm-conserving-style pseudopotential for silicon.
///
/// Substitution note (see docs/ARCHITECTURE.md, Substitutions): the paper
/// uses SG15 ONCV pseudopotentials, whose tabulated data is not available
/// offline. We use the Appelbaum-Hamann local model potential (PRB 8, 1777
/// (1973)),
///   v(r) = -Z erf(sqrt(alpha) r)/r + (v1 + v2 r^2) exp(-alpha r^2),
/// a standard bulk-silicon test potential accurate in exactly the paper's
/// Ecut = 10 Ha regime, plus synthetic Kleinman-Bylander Gaussian projectors
/// so the nonlocal (real-space sparse projector) code path of §3.2 is
/// exercised with the same computational structure.
///
/// Fourier transform used by local_pot.cpp (Hartree units, per atom):
///   v(G)    = exp(-G^2/(4a)) * [ -4 pi Z / G^2
///             + (pi/a)^{3/2} (v1 + v2 (3/(2a) - G^2/(4a^2))) ],   G != 0
///   v(G=0)  = Z pi / a + (pi/a)^{3/2} (v1 + 3 v2/(2a))
/// where the divergent -4 pi Z/G^2 piece at G=0 is dropped by convention
/// (it cancels against the Hartree G=0 term and the Ewald background).

#include <vector>

#include "common/types.hpp"

namespace pwdft::pseudo {

struct LocalParams {
  double zval = 4.0;    ///< valence charge
  double alpha = 0.6102;  ///< Gaussian width (Bohr^-2), Appelbaum-Hamann
  double v1 = 3.042 / 2.0;   ///< Ha (A-H value 3.042 Ry)
  double v2 = -1.372 / 2.0;  ///< Ha/Bohr^2 (A-H value -1.372 Ry)
};

/// One Kleinman-Bylander channel: sum_m D |beta_lm><beta_lm| with a
/// Gaussian radial shape of width sigma; D is the KB energy (Ha).
struct ProjectorChannel {
  int l = 0;          ///< angular momentum (0 or 1 supported)
  double sigma = 1.0; ///< radial width (Bohr)
  double energy = 0.0;  ///< KB coefficient D (Ha)
  double rcut = 4.0;  ///< real-space truncation radius (Bohr)
};

struct PseudoSpecies {
  LocalParams local;
  std::vector<ProjectorChannel> channels;

  /// Silicon defaults; `with_nonlocal` adds the synthetic s & p projectors.
  static PseudoSpecies silicon(bool with_nonlocal = true);
};

/// Local form factor v(|G|) in Ha*Bohr^3 for G != 0 (see file comment).
double local_form_factor(const LocalParams& p, double g2);

/// The finite G = 0 value with the Coulomb divergence removed.
double local_form_factor_g0(const LocalParams& p);

/// Real-space potential v(r) in Ha (for cross-checks and documentation).
double local_potential_r(const LocalParams& p, double r);

}  // namespace pwdft::pseudo
