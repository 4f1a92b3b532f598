#include "pseudo/pseudopotential.hpp"

#include <cmath>

#include "common/check.hpp"

namespace pwdft::pseudo {

PseudoSpecies PseudoSpecies::silicon(bool with_nonlocal) {
  PseudoSpecies s;
  s.local = LocalParams{};  // Appelbaum-Hamann silicon values
  if (with_nonlocal) {
    // Synthetic KB channels (see docs/ARCHITECTURE.md, Substitutions). The
    // repulsive s channel plays the role of the ONCV s nonlocality that the
    // purely local A-H model lacks: it pushes a spurious low s-like state
    // above the valence manifold so the Gamma-only folded spectrum of the
    // 8-atom cell is insulating (gap ~0.13 Ha between bands 16 and 17 at
    // Ecut = 4 Ha), matching the paper's insulating-silicon setup. The weak
    // p channel exercises the l = 1 sparse-projector code path.
    s.channels.push_back(ProjectorChannel{0, 1.0, 0.5, 4.0});
    s.channels.push_back(ProjectorChannel{1, 1.2, 0.05, 4.5});
  }
  return s;
}

double local_form_factor(const LocalParams& p, double g2) {
  PWDFT_ASSERT(g2 > 0.0);
  const double a = p.alpha;
  const double gauss = std::exp(-g2 / (4.0 * a));
  const double pref = std::pow(constants::pi / a, 1.5);
  const double coulomb = -constants::four_pi * p.zval / g2;
  const double shortrange = pref * (p.v1 + p.v2 * (1.5 / a - g2 / (4.0 * a * a)));
  return gauss * (coulomb + shortrange);
}

double local_form_factor_g0(const LocalParams& p) {
  const double a = p.alpha;
  const double pref = std::pow(constants::pi / a, 1.5);
  return p.zval * constants::pi / a + pref * (p.v1 + 1.5 * p.v2 / a);
}

double local_potential_r(const LocalParams& p, double r) {
  const double a = p.alpha;
  if (r < 1e-10) {
    // erf(x)/x -> 2/sqrt(pi) as x -> 0.
    return -p.zval * 2.0 * std::sqrt(a / constants::pi) + p.v1;
  }
  return -p.zval * std::erf(std::sqrt(a) * r) / r +
         (p.v1 + p.v2 * r * r) * std::exp(-a * r * r);
}

}  // namespace pwdft::pseudo
