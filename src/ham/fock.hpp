#pragma once

/// \file fock.hpp
/// The Fock exchange operator, Alg. 2 of the paper.
///
/// (VX psi_j)(r) = -alpha sum_i (f_i/2) phi_i(r) Integral K(r-r') phi_i*(r') psi_j(r') dr'
///
/// Orbitals phi are band-distributed; each band i is broadcast to all ranks
/// (paper: MPI_Bcast "in an as-needed basis"), then every rank solves its
/// local Poisson-like equations by FFT. Implementation options mirror the
/// paper's optimization steps (§3.2):
///   - batch_size:            pair-density FFTs per batched solve (step 2;
///                            1 is band-by-band)
///   - single_precision_comm: broadcast wavefunctions as complex<float> (step 4)
///   - band_window:           bands whose (band x batch) pair solves are
///                            distributed across the engine as one window
/// The next window's broadcasts are prefetched on the engine's async lane
/// while the current window computes (step 5).
/// All options are numerically equivalent except single_precision_comm,
/// whose rounding is bounded by tests (paper: "negligible changes").
///
/// Pair symmetry. The kernel K(G) is real and even on the grid (the
/// constructor makes it so), so the pair potential v_ji = K * (phi_j^* phi_i)
/// is conj(v_ij). Every apply the engine makes to the registered orbitals
/// themselves (PT-CN without MTS, CN, RK4, every ACE build) goes through
/// apply_self_add, which solves the rank's own diagonal band block as its
/// upper triangle: pair (i, j >= i) once, writing the direct term
/// -(alpha/2) f_i phi_i v_ij into column j and the mirrored term
/// -(alpha/2) f_j phi_j conj(v_ij) into column i. Pairs across ranks are
/// solved as in Alg. 2, and the broadcasts are unchanged.
///
/// Exchange energy. exchange_energy() needs no apply: E_X is a sum over
/// unordered pairs of f_i f_j sum_G K(G) |FFT(phi_i^* phi_j)(G)|^2, one
/// forward FFT per pair, each pair computed on exactly one rank (weight 2
/// off the diagonal), then one Allreduce.
///
/// pair_solves() counts Poisson solves (forward FFT, kernel, inverse FFT)
/// only: n_e x n_local per apply_add, n_e x n_local - n_local (n_local - 1)/2
/// per apply_self_add with every band occupied, none for the energy.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fft/fft3d.hpp"
#include "ham/setup.hpp"
#include "linalg/matrix.hpp"
#include "parallel/comm.hpp"
#include "parallel/distribution.hpp"
#include "xc/hybrid.hpp"

namespace pwdft::ham {

struct FockOptions {
  /// Pair densities per batched Poisson solve (paper §3.2 step 2); 1 solves
  /// band by band.
  std::size_t batch_size = 8;
  bool single_precision_comm = false;
  /// Bands per compute window: the band loop broadcasts a window of
  /// orbitals, then distributes the (band x batch) pair solves of the whole
  /// window across the exec engine. Each pair writes its contribution into
  /// a window-indexed buffer and the window is reduced in exact band order,
  /// so the result is independent of both the window size and the engine
  /// width (bit-identical at any thread count; docs/threading.md).
  /// Memory: the window buffer pins band_window * ncol * n_wfc complex
  /// doubles in the applying thread's arena (band_window extra copies of
  /// the block being applied to) — raise it for wide engines, lower it
  /// when memory-bound.
  std::size_t band_window = 4;
};

class FockOperator {
 public:
  FockOperator(const PlanewaveSetup& setup, xc::HybridParams hybrid, FockOptions opt = {});

  /// Registers the exchange orbitals Phi (band layout: local columns of the
  /// global band partition `bands`) with global occupations. Converts the
  /// local orbitals to the real-space wavefunction grid once.
  void set_orbitals(const CMatrix& phi_local, std::span<const double> occ_global,
                    const par::BlockPartition& bands, par::Comm& comm);

  bool has_orbitals() const { return !phi_real_.empty(); }

  /// y_local += VX * psi_local (sphere coefficients, any column count).
  /// Collective over comm: Alg. 2's broadcast loop over all global bands.
  void apply_add(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm);

  /// y_local += VX * Phi for the registered orbitals themselves (local
  /// band columns): apply_add(Phi) to rounding, with the rank's diagonal
  /// block solved as its upper triangle and Phi read from the real-space
  /// grid set_orbitals() already holds. A pair is skipped only when both of
  /// its occupations vanish. Same broadcasts as apply_add; collective.
  void apply_self_add(CMatrix& y_local, par::Comm& comm);

  /// E_X = (1/2) sum_j f_j <phi_j | VX phi_j> of the registered orbitals:
  /// -alpha/(4 N Omega) sum_ij f_i f_j sum_G (K(G)/N) |FFT(phi_i^* phi_j)(G)|^2,
  /// one forward FFT per unordered pair (no Poisson solve, no apply), the
  /// broadcasts of one apply, and one Allreduce. Collective.
  double exchange_energy(par::Comm& comm);

  FockOptions& options() { return opt_; }
  const FockOptions& options() const { return opt_; }
  const xc::HybridParams& hybrid() const { return hybrid_; }

  /// Number of pair Poisson solves performed since construction
  /// (instrumentation for the bench harness; paper: ~95% of all FLOPs).
  std::uint64_t pair_solves() const { return pair_solves_; }
  /// Number of orbital broadcasts issued (Alg. 2 line 4).
  std::uint64_t broadcasts() const { return broadcasts_; }

 private:
  /// Copies (owner) or receives (others) band `band` of the registered
  /// orbitals into `buf` on the real-space wfc grid. Runs on the exec
  /// engine's async lane for prefetched windows; the wire buffer comes from
  /// the executing thread's workspace arena.
  void fetch_orbital(std::size_t band, par::Comm& comm, std::span<Complex> buf);

  /// Alg. 2's broadcast loop: every band of the registered orbitals in band
  /// order, band_window at a time, the next window prefetched on the async
  /// lane while compute(w0, wn, orbitals) runs on window [w0, w0 + wn)
  /// (orbitals: wn contiguous wfc grids).
  template <class F>
  void for_each_window(par::Comm& comm, F&& compute);

  /// y_local += VX psi for psi on the wfc grid; `self` when psi_real is
  /// the registered phi_real_ (the mirrored diagonal block).
  void apply_grid_add(const CMatrix& psi_real, bool self, CMatrix& y_local, par::Comm& comm);

  const PlanewaveSetup& setup_;
  xc::HybridParams hybrid_;
  FockOptions opt_;
  /// Shared process-wide per grid shape via fft::shared_engine.
  std::shared_ptr<fft::Fft3D> fft_wfc_;
  std::vector<double> kernel_;  ///< K(G)/Nwfc on the wavefunction grid
  par::BlockPartition bands_;
  std::vector<double> occ_;
  CMatrix phi_real_;  ///< local orbitals on the real-space wfc grid
  std::uint64_t pair_solves_ = 0;
  std::uint64_t broadcasts_ = 0;
};

}  // namespace pwdft::ham
