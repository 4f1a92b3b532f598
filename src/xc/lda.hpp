#pragma once

/// \file lda.hpp
/// Perdew-Zunger (1981) LDA exchange-correlation: the semi-local part of the
/// hybrid functional. (The paper uses HSE06 = PBE + screened exact exchange;
/// the semi-local flavor does not enter any measured quantity, so PZ-LDA is
/// used for its analytic simplicity — see docs/ARCHITECTURE.md, Substitutions.)

#include <span>

namespace pwdft::xc {

struct XcPoint {
  double eps = 0.0;  ///< energy density per electron (Ha)
  double vxc = 0.0;  ///< potential d(rho*eps)/d(rho) (Ha)
};

/// Exchange-correlation at one density value (rho >= 0, Bohr^-3).
XcPoint lda_pz(double rho);

/// Vectorized form: fills eps[i], vxc[i] from rho[i].
void lda_pz(std::span<const double> rho, std::span<double> eps, std::span<double> vxc);

}  // namespace pwdft::xc
