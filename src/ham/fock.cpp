#include "ham/fock.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/exec.hpp"
#include "grid/transforms.hpp"
#include "linalg/blas.hpp"

namespace pwdft::ham {

namespace {

/// Stage hooks of the fused pair solve (one run_pipeline call per
/// (band-in-window, column-block) task): batch member b is column j0+b of
/// the block being applied to. Each hook runs the identical per-element
/// statements as the staged loops it replaces, so the two formulations are
/// bit-identical.
struct PairSolveHooks {
  const Complex* qi = nullptr;        ///< broadcast orbital, wfc grid
  const Complex* psi_real = nullptr;  ///< column j0 of the block, wfc grid
  Complex* pair = nullptr;            ///< jn contiguous pair densities
  const double* kern = nullptr;
  double scale = 0.0;
  Complex* out = nullptr;  ///< contribution slice for column j0
  std::size_t nw = 0;

  /// Pair density: conj(phi_i) * psi_j.
  static void form(void* user, std::size_t b) {
    const auto* c = static_cast<const PairSolveHooks*>(user);
    const Complex* pj = c->psi_real + b * c->nw;
    Complex* dst = c->pair + b * c->nw;
    for (std::size_t k = 0; k < c->nw; ++k) dst[k] = std::conj(c->qi[k]) * pj[k];
  }
  /// Poisson kernel multiply in G space (interior node between the two
  /// pass stages).
  static void kernel_mul(void* user, std::size_t b) {
    const auto* c = static_cast<const PairSolveHooks*>(user);
    Complex* dst = c->pair + b * c->nw;
    for (std::size_t k = 0; k < c->nw; ++k) dst[k] *= c->kern[k];
  }
  /// Write-out: scale * phi_i * v into the window contribution buffer.
  static void write_out(void* user, std::size_t b) {
    const auto* c = static_cast<const PairSolveHooks*>(user);
    const Complex* v = c->pair + b * c->nw;
    Complex* dst = c->out + b * c->nw;
    for (std::size_t k = 0; k < c->nw; ++k) dst[k] = c->scale * c->qi[k] * v[k];
  }
};

}  // namespace

FockOperator::FockOperator(const PlanewaveSetup& setup, xc::HybridParams hybrid, FockOptions opt)
    : setup_(setup),
      hybrid_(hybrid),
      opt_(opt),
      fft_wfc_(fft::shared_engine(setup.wfc_grid.dims())) {
  if (opt_.op_pipeline == fft::PipelineMode::kAuto)
    opt_.op_pipeline = fft::pipeline_env_default();
  // Precompute K(G)/N on the wavefunction grid (the paper evaluates the
  // exchange on the wavefunction grid, §4).
  const auto dims = setup_.wfc_grid.dims();
  const std::size_t n = setup_.n_wfc();
  kernel_.resize(n);
  const double inv_n = 1.0 / static_cast<double>(n);
  std::size_t idx = 0;
  for (std::size_t z = 0; z < dims[2]; ++z) {
    const int f2 = setup_.wfc_grid.freq(z, 2);
    for (std::size_t y = 0; y < dims[1]; ++y) {
      const int f1 = setup_.wfc_grid.freq(y, 1);
      for (std::size_t x = 0; x < dims[0]; ++x, ++idx) {
        const auto g = setup_.crystal.lattice().gvector(setup_.wfc_grid.freq(x, 0), f1, f2);
        kernel_[idx] = xc::exchange_kernel(grid::norm2(g), hybrid_.omega) * inv_n;
      }
    }
  }
}

void FockOperator::set_orbitals(const CMatrix& phi_local, std::span<const double> occ_global,
                                const par::BlockPartition& bands, par::Comm& comm) {
  PWDFT_CHECK(phi_local.rows() == setup_.n_g(), "FockOperator: orbital row mismatch");
  PWDFT_CHECK(occ_global.size() == bands.total(), "FockOperator: occupation count mismatch");
  PWDFT_CHECK(phi_local.cols() == bands.count(comm.rank()),
              "FockOperator: local band count mismatch");
  bands_ = bands;
  occ_.assign(occ_global.begin(), occ_global.end());

  // All local orbitals to the real-space wfc grid as one fused batch.
  grid::sphere_to_grid_many(*fft_wfc_, setup_.smap_wfc, phi_local, phi_real_);
}

void FockOperator::fetch_orbital(std::size_t band, par::Comm& comm, std::span<Complex> buf) {
  const int owner = bands_.owner(band);
  const std::size_t nw = setup_.n_wfc();
  if (comm.rank() == owner) {
    const std::size_t local = band - bands_.offset(owner);
    std::copy_n(phi_real_.col(local), nw, buf.data());
  }
  ++broadcasts_;
  if (comm.size() == 1) return;
  if (opt_.single_precision_comm) {
    // Convert to complex<float> for the wire and back (paper §3.2 step 4).
    // The wire buffer lives in the calling thread's arena: when the fetch is
    // prefetched on the pool's async lane it uses that lane's workspace and
    // never races the compute thread's buffers.
    auto* wire = exec::workspace().fbuf(exec::Slot::fock_wire, nw).data();
    if (comm.rank() == owner)
      for (std::size_t i = 0; i < nw; ++i) wire[i] = std::complex<float>(buf[i]);
    comm.bcast(wire, nw, owner);
    for (std::size_t i = 0; i < nw; ++i) buf[i] = Complex(wire[i]);
  } else {
    comm.bcast(buf.data(), nw, owner);
  }
}

void FockOperator::apply_add(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm) {
  PWDFT_CHECK(has_orbitals(), "FockOperator: orbitals not set");
  PWDFT_CHECK(psi_local.rows() == setup_.n_g() && y_local.rows() == setup_.n_g() &&
                  psi_local.cols() == y_local.cols(),
              "FockOperator: shape mismatch");

  const std::size_t nw = setup_.n_wfc();
  const std::size_t ncol = psi_local.cols();
  const std::size_t nb = bands_.total();
  auto& ws = exec::workspace();
  if (ncol == 0) {
    // Still participate in the collective broadcasts (band order).
    auto buf = ws.cbuf(exec::Slot::fock_fetch, nw);
    for (std::size_t i = 0; i < nb; ++i) fetch_orbital(i, comm, buf);
    return;
  }

  // psi on the real-space wavefunction grid: fused scatter + batched FFT.
  CMatrix& psi_real = ws.cmat(exec::Slot::fock_psi_real, nw, ncol);
  grid::sphere_to_grid_many(*fft_wfc_, setup_.smap_wfc, psi_local, psi_real);

  CMatrix& acc = ws.cmat(exec::Slot::fock_acc, nw, ncol);
  acc.fill(Complex{0.0, 0.0});
  const std::size_t bs = opt_.batched ? std::max<std::size_t>(1, opt_.batch_size) : 1;
  const std::size_t nblocks = (ncol + bs - 1) / bs;
  const std::size_t win = std::max<std::size_t>(1, opt_.band_window);

  // Window pipeline (paper §3.2 steps 2+5): broadcast `win` bands, then
  // distribute the window's (band x batch) pair solves across the engine
  // while the next window's broadcasts run on the async lane. Every pair
  // task writes its contribution into its own slice of `contrib`; the
  // window is then reduced into `acc` in exact band order, so the result is
  // independent of the engine width AND of the window size.
  auto contrib = ws.cbuf(exec::Slot::fock_win, win * ncol * nw);
  auto fetch_bufs = ws.cbuf(exec::Slot::fock_fetch, 2 * win * nw);
  std::span<Complex> current = fetch_bufs.subspan(0, win * nw);
  std::span<Complex> next = fetch_bufs.subspan(win * nw, win * nw);

  // Fetches a window of orbital broadcasts, in band order (all ranks issue
  // the same bcast sequence whether or not they compute).
  auto fetch_window = [this, &comm, nb, nw](std::size_t b0, std::size_t n,
                                            std::span<Complex> bufs) {
    const std::size_t bn = std::min(n, nb - b0);
    for (std::size_t k = 0; k < bn; ++k)
      fetch_orbital(b0 + k, comm, bufs.subspan(k * nw, nw));
  };

  // The TaskGroup joins in-flight prefetches even if the compute section
  // throws, so a parked broadcast can never outlive `this` or `comm`.
  exec::TaskGroup prefetch;
  fetch_window(0, win, current);

  for (std::size_t w0 = 0; w0 < nb; w0 += win) {
    const std::size_t wn = std::min(win, nb - w0);
    if (w0 + win < nb) prefetch.run([=] { fetch_window(w0 + win, win, next); });

    // One task per (band-in-window, column block): the dominant O(Ne^2)
    // loop. Each task forms its pair densities in its own thread's arena,
    // runs the batched Poisson solve inline (nested FFT parallel_for runs
    // inline on a worker), and writes scale * q_i * v into its disjoint
    // slice of `contrib`.
    const Complex* cur_p = current.data();
    Complex* contrib_p = contrib.data();
    auto pair_block = [&](std::size_t tb, std::size_t te) {
      for (std::size_t t = tb; t < te; ++t) {
        const std::size_t il = t / nblocks;
        const double f_i = occ_[w0 + il];
        if (f_i <= 1e-12) continue;
        const std::size_t j0 = (t % nblocks) * bs;
        const std::size_t jn = std::min(bs, ncol - j0);
        const double scale = -hybrid_.alpha * 0.5 * f_i;
        const Complex* qi = cur_p + il * nw;
        auto pair = exec::workspace().cbuf(exec::Slot::fock_pair, bs * nw);
        if (opt_.op_pipeline == fft::PipelineMode::kFused) {
          // The whole pair solve as one pipeline: the interior multiplies
          // are graph nodes chained between the pass stages, so the task is
          // a single cached-graph replay (keyed by the block shape jn)
          // instead of two replays bracketed by three serial loops.
          PairSolveHooks h{qi,    psi_real.col(j0),
                           pair.data(),  kernel_.data(),
                           scale, contrib_p + (il * ncol + j0) * nw,
                           nw};
          const std::array<fft::Fft3D::Stage, 5> stages = {
              fft::Fft3D::Stage::make_hook(&PairSolveHooks::form, &h),
              fft_wfc_->full_passes_stage(-1, pair.data()),
              fft::Fft3D::Stage::make_hook(&PairSolveHooks::kernel_mul, &h),
              fft_wfc_->full_passes_stage(+1, pair.data()),
              fft::Fft3D::Stage::make_hook(&PairSolveHooks::write_out, &h)};
          fft_wfc_->run_pipeline(jn, stages);
          continue;
        }
        for (std::size_t col = 0; col < jn; ++col) {
          const Complex* pj = psi_real.col(j0 + col);
          Complex* dst = pair.data() + col * nw;
          for (std::size_t k = 0; k < nw; ++k) dst[k] = std::conj(qi[k]) * pj[k];
        }
        fft_wfc_->forward_many(pair.data(), jn);
        const double* kern = kernel_.data();
        for (std::size_t col = 0; col < jn; ++col) {
          Complex* dst = pair.data() + col * nw;
          for (std::size_t k = 0; k < nw; ++k) dst[k] *= kern[k];
        }
        fft_wfc_->inverse_many(pair.data(), jn);
        for (std::size_t col = 0; col < jn; ++col) {
          const Complex* v = pair.data() + col * nw;
          Complex* dst = contrib_p + (il * ncol + j0 + col) * nw;
          for (std::size_t k = 0; k < nw; ++k) dst[k] = scale * qi[k] * v[k];
        }
      }
    };
    // Hybrid band×line schedule: a window narrower than the engine runs
    // its tasks serially here so each task's batched pair FFTs win the
    // pool — each batched transform replays the persistent task graph
    // cached for its block shape (one pool wake per transform). Identical
    // per-task operations either way, so the choice never changes results
    // (docs/threading.md).
    if (opt_.band_line_split && exec::prefer_line_split(wn * nblocks)) {
      pair_block(0, wn * nblocks);
    } else {
      exec::parallel_for(wn * nblocks, pair_block);
    }
    for (std::size_t il = 0; il < wn; ++il)
      if (occ_[w0 + il] > 1e-12) pair_solves_ += ncol;

    // Deterministic reduction: every element accumulates the window's bands
    // in band order; elements are disjoint across chunks.
    Complex* acc_p = acc.data();
    exec::parallel_for_cols(
        ncol, nw, [&](std::size_t col, std::size_t r0, std::size_t len) {
          for (std::size_t il = 0; il < wn; ++il) {
            if (occ_[w0 + il] <= 1e-12) continue;
            const Complex* src = contrib_p + (il * ncol + col) * nw + r0;
            Complex* dst = acc_p + col * nw + r0;
            for (std::size_t k = 0; k < len; ++k) dst[k] += src[k];
          }
        });

    prefetch.wait();  // rethrows a failed prefetch
    std::swap(current, next);
  }

  // Back to sphere coefficients: c'(G) = forward(acc)(G) / (N * Omega), as
  // one fused batched FFT + gather.
  const double out_scale = 1.0 / (static_cast<double>(nw) * setup_.volume());
  CMatrix& coeffs = ws.cmat(exec::Slot::fock_coeffs, setup_.n_g(), ncol);
  grid::grid_to_sphere_many(*fft_wfc_, setup_.smap_wfc, acc, out_scale, coeffs);
  for (std::size_t j = 0; j < ncol; ++j)
    linalg::axpy(Complex{1.0, 0.0}, {coeffs.col(j), setup_.n_g()},
                 {y_local.col(j), setup_.n_g()});
}

double FockOperator::exchange_energy(const CMatrix& psi_local, std::span<const double> occ_local,
                                     par::Comm& comm) {
  PWDFT_CHECK(psi_local.cols() == occ_local.size(), "exchange_energy: occupation mismatch");
  CMatrix vx(setup_.n_g(), psi_local.cols(), Complex{0.0, 0.0});
  apply_add(psi_local, vx, comm);
  double e = 0.0;
  for (std::size_t j = 0; j < psi_local.cols(); ++j) {
    e += 0.5 * occ_local[j] *
         linalg::dotc({psi_local.col(j), setup_.n_g()}, {vx.col(j), setup_.n_g()}).real();
  }
  comm.allreduce_sum(&e, 1);
  return e;
}

}  // namespace pwdft::ham
