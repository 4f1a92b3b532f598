#include "td/mts.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "linalg/blas.hpp"

namespace pwdft::td {

double MtsScheduler::subspace_drift(const CMatrix& psi_local, par::Comm& comm) const {
  PWDFT_ASSERT(phi_frozen_.rows() == psi_local.rows() &&
               phi_frozen_.cols() == psi_local.cols());
  const std::size_t ng = psi_local.rows();
  double worst = 0.0;
  for (std::size_t j = 0; j < psi_local.cols(); ++j) {
    const Complex s = linalg::dotc({phi_frozen_.col(j), ng}, {psi_local.col(j), ng});
    worst = std::max(worst, 1.0 - std::norm(s));
  }
  comm.allreduce_sum(&worst, 1);
  return worst;
}

MtsStepDecision MtsScheduler::begin_step(ham::Hamiltonian& ham, const CMatrix& psi_local,
                                         std::span<const double> occ_global,
                                         const par::BlockPartition& bands, par::Comm& comm,
                                         int interval, double drift_tol) {
  MtsStepDecision d;
  // Without MTS the caller registers each block it applies H to
  // (Hamiltonian::register_and_apply).
  if (!ham.hybrid_enabled() || interval <= 0) return d;

  d.active = true;
  bool refresh = !have_frozen_ || steps_since_refresh_ >= interval;
  if (!refresh) {
    // The drift decision must be identical on every rank (it gates
    // collectives): subspace_drift ends in an Allreduce, so it is.
    d.drift = subspace_drift(psi_local, comm);
    refresh = d.drift > drift_tol;
  }

  if (refresh) {
    phi_frozen_ = psi_local;
    ham.request_ace_refresh();
    ham.set_exchange_orbitals(phi_frozen_, occ_global, bands, comm);
    serial_at_refresh_ = ham.exchange_serial();
    have_frozen_ = true;
    steps_since_refresh_ = 1;
    d.refreshed = true;
    d.drift = 0.0;
  } else {
    if (ham.exchange_serial() != serial_at_refresh_) {
      // Someone registered exchange orbitals since our refresh (per-step
      // energy recording does). Re-pin the frozen snapshot so the
      // trajectory does not depend on whether that happened.
      ham.request_ace_refresh();
      ham.set_exchange_orbitals(phi_frozen_, occ_global, bands, comm);
      serial_at_refresh_ = ham.exchange_serial();
    }
    ++steps_since_refresh_;
  }
  return d;
}

}  // namespace pwdft::td
