#include "ham/density.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/exec.hpp"
#include "grid/transforms.hpp"

namespace pwdft::ham {

namespace {

/// Interior stage of the narrow density pipeline: band b's |ψ|² accumulated
/// into its chunk's partial density. Chained per chunk (Stage::chain =
/// bands-per-chunk), so a chunk's bands add in exact band order — the same
/// per-element operation sequence as the chunk loop of the band path,
/// keeping both formulations bit-identical.
struct RhoAccumHook {
  const double* occ = nullptr;
  double inv_vol = 0.0;
  const Complex* grids = nullptr;  ///< batched dense-grid orbitals
  double* parts = nullptr;         ///< nchunks x nd chunk partials
  std::size_t nd = 0;
  std::size_t bper = 0;  ///< bands per chunk (the chain length)
  static void run(void* user, std::size_t b) {
    const auto* c = static_cast<const RhoAccumHook*>(user);
    double* part = c->parts + (b / c->bper) * c->nd;
    if (b % c->bper == 0) std::fill_n(part, c->nd, 0.0);
    const Complex* w = c->grids + b * c->nd;
    const double f = c->occ[b] * c->inv_vol;
    for (std::size_t i = 0; i < c->nd; ++i) part[i] += f * std::norm(w[i]);
  }
};

/// Trailing join stage: job j reduces its slice of the grid over the chunk
/// partials in chunk order (per-element independent, so the job count only
/// shapes scheduling, never results).
struct RhoReduceHook {
  const double* parts = nullptr;
  double* rho = nullptr;
  std::size_t nd = 0;
  std::size_t nchunks = 0;
  std::size_t njobs = 0;
  static void run(void* user, std::size_t job) {
    const auto* c = static_cast<const RhoReduceHook*>(user);
    const std::size_t per = (c->nd + c->njobs - 1) / c->njobs;
    const std::size_t i0 = job * per;
    const std::size_t i1 = std::min(c->nd, i0 + per);
    for (std::size_t i = i0; i < i1; ++i) {
      double acc = 0.0;
      for (std::size_t ch = 0; ch < c->nchunks; ++ch) acc += c->parts[ch * c->nd + i];
      c->rho[i] = acc;
    }
  }
};

}  // namespace

std::vector<double> compute_density(const PlanewaveSetup& setup, fft::Fft3D& fft_dense,
                                    const CMatrix& psi_local, std::span<const double> occ_local,
                                    par::Comm& comm) {
  PWDFT_CHECK(psi_local.cols() == occ_local.size(), "compute_density: occupations mismatch");
  const std::size_t nd = setup.n_dense();
  const std::size_t nb = psi_local.cols();
  std::vector<double> rho(nd, 0.0);
  const double inv_vol = 1.0 / setup.volume();
  if (nb == 0) {
    comm.allreduce_sum(rho.data(), rho.size());
    return rho;
  }

  // Band-parallel with a deterministic reduction: bands are grouped into a
  // fixed number of chunks (independent of the engine width), each chunk
  // accumulates its bands serially in band order into its own partial
  // density, and the partials are reduced in chunk order. The summation
  // tree therefore never depends on how chunks were scheduled, so the
  // result is bit-identical at any thread count. No per-call heap
  // allocation beyond the returned density.
  //
  // kMaxChunks is part of the bitwise contract (changing it changes the
  // rounding pattern once and for all) and trades parallelism against
  // arena memory: the partials pin min(nb, kMaxChunks) * nd doubles, while
  // engines wider than kMaxChunks idle through the per-band FFT phase.
  constexpr std::size_t kMaxChunks = 32;
  const std::size_t bper = (nb + kMaxChunks - 1) / kMaxChunks;
  const std::size_t nchunks = (nb + bper - 1) / bper;
  auto parts = exec::workspace().rbuf(exec::Slot::rho_part, nchunks * nd);

  // Hybrid band×line schedule: with fewer bands than engine threads the
  // chunk loop cannot fill the engine, so the whole narrow formulation —
  // scatter, masked inverse passes, chunk accumulation (chained in band
  // order), and the ordered chunk reduction — is ONE Fft3D::run_pipeline
  // call: a single cached-graph replay (one pool wake). Every hook runs the
  // same per-element statements in the same order as the chunk loop below,
  // and the FFT per line is the identical serial kernel, so the reduction
  // tree — and every bit of rho — is unchanged.
  if (exec::prefer_line_split(nb)) {
    CMatrix& grids = exec::workspace().cmat(exec::Slot::rho_grids, nd, nb);
    // Width-independent job count for the reduction slice nodes (part of
    // the graph shape, never of the results — each element reduces its own
    // chunk column independently).
    const std::size_t njobs = std::min<std::size_t>(32, (nd + 4095) / 4096);
    const std::size_t ng = setup.n_g();
    grid::ScatterHook scatter{setup.smap_dense.map.data(), ng, psi_local.data(), ng,
                              grids.data(),                nd};
    RhoAccumHook accum{occ_local.data(), inv_vol, grids.data(), parts.data(), nd, bper};
    RhoReduceHook reduce{parts.data(), rho.data(), nd, nchunks, njobs};
    const std::array<fft::Fft3D::Stage, 4> stages = {
        fft::Fft3D::Stage::make_hook(&grid::ScatterHook::run, &scatter),
        grid::inverse_passes_stage(setup.smap_dense, grids.data()),
        fft::Fft3D::Stage::make_hook(&RhoAccumHook::run, &accum, bper),
        fft::Fft3D::Stage::make_join(&RhoReduceHook::run, &reduce, njobs)};
    fft_dense.run_pipeline(nb, stages);
    comm.allreduce_sum(rho.data(), rho.size());
    return rho;
  }

  exec::parallel_for(nchunks, [&](std::size_t cb, std::size_t ce) {
    for (std::size_t c = cb; c < ce; ++c) {
      double* part = parts.data() + c * nd;
      std::fill_n(part, nd, 0.0);
      const std::size_t j1 = std::min(nb, (c + 1) * bper);
      for (std::size_t j = c * bper; j < j1; ++j) {
        // Per-band transform scratch from the executing thread's arena.
        auto work = exec::workspace().cbuf(exec::Slot::grid_a, nd);
        grid::sphere_to_grid(fft_dense, setup.smap_dense, {psi_local.col(j), setup.n_g()}, work);
        const Complex* w = work.data();
        const double f = occ_local[j] * inv_vol;
        for (std::size_t i = 0; i < nd; ++i) part[i] += f * std::norm(w[i]);
      }
    }
  });

  // Ordered reduction over chunks; grid points are disjoint across tasks.
  double* rho_p = rho.data();
  const double* parts_p = parts.data();
  exec::parallel_for(
      nd,
      [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          double acc = 0.0;
          for (std::size_t c = 0; c < nchunks; ++c) acc += parts_p[c * nd + i];
          rho_p[i] = acc;
        }
      },
      4096);

  comm.allreduce_sum(rho.data(), rho.size());
  return rho;
}

double integrate_dense(const PlanewaveSetup& setup, std::span<const double> f) {
  PWDFT_CHECK(f.size() == setup.n_dense(), "integrate_dense: size mismatch");
  double acc = 0.0;
  for (double v : f) acc += v;
  return acc * setup.weight_dense();
}

double density_error(const PlanewaveSetup& setup, std::span<const double> rho_new,
                     std::span<const double> rho_old) {
  PWDFT_CHECK(rho_new.size() == rho_old.size(), "density_error: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < rho_new.size(); ++i) acc += std::abs(rho_new[i] - rho_old[i]);
  const double nelec = setup.crystal.n_electrons();
  return acc * setup.weight_dense() / nelec;
}

}  // namespace pwdft::ham
