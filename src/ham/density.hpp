#pragma once

/// \file density.hpp
/// Electron density evaluation (paper §3.4): each rank accumulates
/// |psi_i(r)|^2 over its local bands on the dense grid via FFTs, followed by
/// one Allreduce across all ranks.

#include <span>
#include <vector>

#include "fft/fft3d.hpp"
#include "ham/setup.hpp"
#include "linalg/matrix.hpp"
#include "parallel/comm.hpp"

namespace pwdft::ham {

/// rho(r) on the dense grid from band-distributed orbitals; occ_local are
/// the occupations of the local bands. Collective over `comm`.
///
/// Hybrid band×line schedule: when the local band count is below the engine
/// width (exec::prefer_line_split), scatter → inverse passes → |ψ|² chunk
/// accumulation (chained in band order) → ordered chunk reduction run as
/// ONE Fft3D::run_pipeline call — a single cached-graph replay / one pool
/// wake. Both paths are bit-identical at any width (docs/threading.md).
std::vector<double> compute_density(const PlanewaveSetup& setup, fft::Fft3D& fft_dense,
                                    const CMatrix& psi_local, std::span<const double> occ_local,
                                    par::Comm& comm);

/// perfbench/ptbench.cpp's call form, `..., comm, true,
/// h.options().op_pipeline)`: the two trailing arguments are ignored.
/// Delete with that call form (ROADMAP item 1).
inline std::vector<double> compute_density(const PlanewaveSetup& setup, fft::Fft3D& fft_dense,
                                           const CMatrix& psi_local,
                                           std::span<const double> occ_local, par::Comm& comm,
                                           bool, fft::PipelineMode) {
  return compute_density(setup, fft_dense, psi_local, occ_local, comm);
}

/// Integral of a dense-grid function: (Omega/N) * sum_r f(r).
double integrate_dense(const PlanewaveSetup& setup, std::span<const double> f);

/// Relative L1 density change per electron, the PT-CN SCF convergence
/// monitor (paper §4: stopping criterion 1e-6 on the density error).
double density_error(const PlanewaveSetup& setup, std::span<const double> rho_new,
                     std::span<const double> rho_old);

}  // namespace pwdft::ham
