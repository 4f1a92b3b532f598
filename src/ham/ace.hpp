#pragma once

/// \file ace.hpp
/// Adaptively Compressed Exchange (ACE), Lin (2016) [paper ref 24].
///
/// The paper notes (§1) that on CPU machines PT-CN + ACE [22] reduces the
/// hybrid rt-TDDFT cost, while on Summit the direct PT treatment wins. We
/// implement ACE so that trade-off is an executable ablation
/// (bench/ablation_ace):
///   W  = VX * Phi,          M = Phi^H W  (Hermitian, negative definite)
///   -M = L L^H,             Xi = W L^{-H}
///   VX_ACE = -Xi Xi^H       (exact on span(Phi): VX_ACE Phi = VX Phi)
///
/// The operator is wired into the hot loops through
/// Hamiltonian::set_exchange_orbitals (ACE + refresh cadence) and the MTS
/// scheduler of the propagators (td/mts.hpp): one exact Fock apply per
/// build amortizes over every cheap apply_add() until the next refresh.

#include <span>

#include "ham/fock.hpp"
#include "parallel/transpose.hpp"

namespace pwdft::ham {

class AceOperator {
 public:
  explicit AceOperator(const PlanewaveSetup& setup) : setup_(setup) {}

  /// Builds the compressed operator from `fock`'s current orbitals, which
  /// must be phi_local: one exact Fock self-apply (FockOperator::
  /// apply_self_add) plus dense linear algebra in the G-space layout.
  /// Collective. Deterministic: serial dense algebra on G-layout
  /// blocks produced by the (bit-identical) transpose, so the result is
  /// identical across thread width and Comm backend whenever the Fock
  /// apply is (docs/threading.md).
  void build(FockOperator& fock, const CMatrix& phi_local, par::Comm& comm);

  bool ready() const { return !xi_g_.empty(); }

  /// y_local += VX_ACE * psi_local (band layout). Collective: two
  /// transposes + one small Allreduce, no per-band broadcasts.
  /// Allocation-free: scratch lives in the ace_* workspace slots.
  void apply_add(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm) const;

  /// Number of projector builds since construction (instrumentation for
  /// the refresh-cadence tests and the ablation bench).
  std::uint64_t builds() const { return builds_; }

 private:
  const PlanewaveSetup& setup_;
  par::WavefunctionTranspose transpose_;
  par::BlockPartition psi_bands_;
  CMatrix xi_g_;  ///< (ng_local x nb) compressed exchange vectors, G layout
  std::uint64_t builds_ = 0;
};

}  // namespace pwdft::ham
