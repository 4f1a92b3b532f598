#pragma once

/// \file hamiltonian.hpp
/// The time-dependent Kohn-Sham Hamiltonian (paper Eq. 2):
///   H(t, P) = 1/2 |G + a(t)|^2  +  V_loc,ps + V_H[rho] + V_xc[rho]  +  V_nl  +  VX[P]
/// with a laser coupled in the velocity gauge through the vector potential
/// a(t). The Fock term can be applied directly (Alg. 2) or through ACE.

#include <memory>
#include <span>
#include <vector>

#include "common/timer.hpp"
#include "crystal/ewald.hpp"
#include "fft/fft3d.hpp"
#include "ham/ace.hpp"
#include "ham/fock.hpp"
#include "ham/setup.hpp"
#include "pseudo/local_pot.hpp"
#include "pseudo/nonlocal.hpp"
#include "xc/lda.hpp"

namespace pwdft::ham {

struct HamiltonianOptions {
  xc::HybridParams hybrid;
  FockOptions fock;
  bool use_nonlocal = true;
  /// Apply exchange through the ACE compression instead of direct Alg. 2:
  /// apply() then costs two transposes + one small Allreduce instead of a
  /// broadcast loop of pair solves, and one exact Fock apply per projector
  /// build amortizes over every apply until the next refresh. Off by
  /// default: ACE is exact only on span(Phi).
  bool use_ace = false;
  /// Rebuild the ACE projectors every k-th set_exchange_orbitals()
  /// registration (counter-based, deterministic; k >= 1, default 1 = every
  /// registration). The SCF outer loop and the MTS propagators force a
  /// rebuild at their own schedule points through request_ace_refresh()
  /// regardless of this cadence.
  int ace_refresh = 1;
  /// perfbench/ptbench.cpp's call form of compute_density reads this; it
  /// cannot be set and nothing branches on it. Delete with that call form
  /// (ROADMAP item 1).
  static constexpr fft::PipelineMode op_pipeline = fft::PipelineMode::kFused;
};

class Hamiltonian {
 public:
  Hamiltonian(const PlanewaveSetup& setup, const pseudo::PseudoSpecies& species,
              HamiltonianOptions options);

  const PlanewaveSetup& setup() const { return setup_; }
  const HamiltonianOptions& options() const { return options_; }

  /// Rebuilds V_H + V_xc from a dense-grid density (local operation; the
  /// density is replicated on every rank per paper §3.4).
  void update_density(std::span<const double> rho_dense);

  /// Sets the vector potential a(t) entering the kinetic term.
  void set_vector_potential(const grid::Vec3& a);
  const grid::Vec3& vector_potential() const { return a_; }

  /// Registers the exchange orbitals (PT-CN refreshes these every SCF
  /// iteration with Psi_f; the MTS scheduler pins a frozen snapshot at step
  /// starts). Always updates the Fock orbitals; rebuilds the ACE projectors
  /// on the ace_refresh cadence when ACE is enabled. Collective.
  void set_exchange_orbitals(const CMatrix& phi_local, std::span<const double> occ_global,
                             const par::BlockPartition& bands, par::Comm& comm);

  /// Forces the next set_exchange_orbitals() to rebuild the ACE projectors
  /// regardless of where the ace_refresh cadence stands (schedule anchor
  /// for the SCF outer loop and the propagators' MTS refresh steps).
  void request_ace_refresh() { ace_registrations_ = 0; }

  /// Monotone count of set_exchange_orbitals() registrations. Propagators
  /// freezing an exchange snapshot compare this against the value at their
  /// last refresh to detect (and deterministically repair) registrations
  /// made behind their back, e.g. by per-step energy evaluation.
  std::uint64_t exchange_serial() const { return exchange_serial_; }

  /// y = H psi for a block of local bands (sphere coefficients), with the
  /// exchange orbitals registered earlier (LOBPCG blocks, MTS-frozen
  /// exchange, tests). Optional timers record "hpsi_local" and "hpsi_fock".
  void apply(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm,
             TimerRegistry* timers = nullptr);

  /// Registers psi as the exchange orbitals (set_exchange_orbitals) and
  /// sets y = H psi for that same block: direct exchange then runs as
  /// FockOperator::apply_self_add, which solves the rank's diagonal band
  /// block as its upper triangle. The propagators' applies with exchange
  /// from the current orbitals (PT-CN without MTS, CN, RK4) use this.
  /// Collective.
  void register_and_apply(const CMatrix& psi_local, std::span<const double> occ_global,
                          const par::BlockPartition& bands, CMatrix& y_local, par::Comm& comm,
                          TimerRegistry* timers = nullptr);

  bool hybrid_enabled() const { return options_.hybrid.enabled; }
  /// Toggles the exact-exchange term at runtime (the ground-state solver
  /// converges an LDA phase before switching the hybrid on).
  void set_hybrid_enabled(bool enabled) { options_.hybrid.enabled = enabled; }
  FockOperator& fock() { return fock_; }
  const FockOperator& fock() const { return fock_; }
  const AceOperator& ace() const { return ace_; }
  const pseudo::NonlocalProjectors* nonlocal() const { return nonlocal_.get(); }

  const std::vector<double>& v_local_ps() const { return v_loc_ps_; }
  const std::vector<double>& v_hartree() const { return v_hartree_; }
  const std::vector<double>& v_xc() const { return v_xc_; }
  const std::vector<double>& eps_xc() const { return eps_xc_; }
  double ewald_energy() const { return e_ewald_; }
  /// Kinetic coefficients 1/2 |G + a|^2 per sphere index.
  const std::vector<double>& kinetic() const { return kin_; }
  fft::Fft3D& fft_dense() { return *fft_dense_; }

 private:
  /// y = (T + V_loc + V_H + V_xc + V_nl) psi: every term but exchange.
  void apply_local(const CMatrix& psi_local, CMatrix& y_local, TimerRegistry* timers);

  const PlanewaveSetup& setup_;
  HamiltonianOptions options_;
  /// Shared process-wide per grid shape via fft::shared_engine:
  /// co-resident Hamiltonians on the same dense grid reuse one warmed graph
  /// cache (the serve::JobEngine runs several tenants per process).
  std::shared_ptr<fft::Fft3D> fft_dense_;
  std::vector<double> v_loc_ps_;
  std::vector<double> v_hartree_;
  std::vector<double> v_xc_;
  std::vector<double> eps_xc_;
  std::vector<double> v_total_;  ///< v_loc_ps + v_H + v_xc on the dense grid
  std::unique_ptr<pseudo::NonlocalProjectors> nonlocal_;
  FockOperator fock_;
  AceOperator ace_;
  std::uint64_t exchange_serial_ = 0;    ///< registrations since construction
  std::uint64_t ace_registrations_ = 0;  ///< position in the ace_refresh cadence
  grid::Vec3 a_{0.0, 0.0, 0.0};
  std::vector<double> kin_;
  double e_ewald_ = 0.0;
};

}  // namespace pwdft::ham
