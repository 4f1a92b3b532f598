#pragma once

/// \file mts.hpp
/// Multiple time stepping (MTS) for the exchange operator, after Mandal,
/// Thakkar & Pal (arXiv:2110.07670): the cheap local/semilocal Hamiltonian
/// responds to the density every step and every inner iteration, while the
/// expensive exact-exchange operator is frozen across steps and rebuilt
/// only every `interval`-th step — or earlier, when a monitored drift bound
/// against the frozen orbital snapshot trips. Composes with ACE
/// (ham/ace.hpp): on non-refresh steps the compressed apply costs two
/// transposes and a small GEMM, and the exact Fock pair solves disappear
/// from the step entirely.
///
/// Determinism contract (docs/threading.md): the refresh cadence is
/// counter-based and the drift monitor is a deterministic reduction, so
/// the rebuild pattern — and with it the physics — is bit-identical across
/// thread width and Comm backend, and never depends on wall-clock time.

#include <span>

#include "ham/hamiltonian.hpp"
#include "linalg/matrix.hpp"
#include "parallel/comm.hpp"
#include "parallel/distribution.hpp"

namespace pwdft::td {

/// What begin_step() decided for this step.
struct MtsStepDecision {
  bool active = false;     ///< MTS governs the exchange cadence of this step
  bool refreshed = false;  ///< the exchange operator was rebuilt this step
  double drift = 0.0;      ///< monitored drift vs the frozen snapshot (non-refresh steps)
};

/// Per-propagator MTS state: the frozen orbital snapshot, the step counter
/// driving the refresh cadence, and the Hamiltonian exchange serial that
/// detects registrations made behind the propagator's back.
class MtsScheduler {
 public:
  /// Step-start hook; collective over comm. With `interval` <= 0 (or
  /// exchange disabled) this registers nothing and reports MTS inactive —
  /// the caller then registers every block it applies H to through
  /// Hamiltonian::register_and_apply. With MTS active it either rebuilds
  /// the exchange operator from psi_local (cadence due, or drift >
  /// drift_tol) or keeps the frozen operator; in the latter case, if
  /// anything registered exchange orbitals since the last refresh (e.g.
  /// per-step energy evaluation), the frozen snapshot is re-registered —
  /// with ACE the forced rebuild from identical inputs reproduces the
  /// previous projectors bit-for-bit, so the trajectory is independent of
  /// such interleaved registrations.
  MtsStepDecision begin_step(ham::Hamiltonian& ham, const CMatrix& psi_local,
                             std::span<const double> occ_global,
                             const par::BlockPartition& bands, par::Comm& comm, int interval,
                             double drift_tol);

 private:
  /// max_j (1 - |<phi_frozen_j, psi_j>|^2): per-band fidelity leakage out
  /// of the frozen exchange snapshot. Rank-local maxima are aggregated with
  /// allreduce_sum as a cheap deterministic upper proxy (cf. td/cn.cpp).
  double subspace_drift(const CMatrix& psi_local, par::Comm& comm) const;

  CMatrix phi_frozen_;
  std::uint64_t serial_at_refresh_ = 0;
  int steps_since_refresh_ = 0;
  bool have_frozen_ = false;
};

}  // namespace pwdft::td
