#include "ham/fock.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/exec.hpp"
#include "grid/transforms.hpp"
#include "linalg/blas.hpp"

namespace pwdft::ham {

namespace {

/// Occupations at or below this mark empty bands, whose orbitals add no
/// exchange.
constexpr double kEmpty = 1e-12;

/// Stage hooks of one (band-in-window, column-block) task: batch member b
/// pairs the broadcast orbital phi_i with column b of the task's block of
/// partner columns. The pair solve mounts form → forward passes →
/// kernel_mul → inverse passes → write_out as one run_pipeline call, and the
/// exchange energy runs form → forward passes → kernel_norm.
struct PairHooks {
  const Complex* qi = nullptr;    ///< broadcast orbital phi_i, wfc grid
  const Complex* cols = nullptr;  ///< partner column of member 0, wfc grid
  Complex* pair = nullptr;        ///< contiguous pair densities, one per member
  const double* kern = nullptr;
  std::size_t nw = 0;
  double scale = 0.0;      ///< -(alpha/2) f_i
  Complex* out = nullptr;  ///< direct term of member 0; null when f_i vanishes
  /// Self-apply only (else null): the task's slice of mirrored terms,
  /// summed over the members in column order — write_out then runs as one
  /// chain, so the order never depends on scheduling.
  Complex* mirror = nullptr;
  const double* occ = nullptr;  ///< occupations of the members' bands
  std::size_t mirror_from = 0;  ///< first member above the diagonal
  double neg_half_alpha = 0.0;  ///< -(alpha/2)
  double* sums = nullptr;       ///< exchange energy: one sum per member

  /// Pair density: conj(phi_i) * psi_j.
  static void form(void* user, std::size_t b) {
    const auto* c = static_cast<const PairHooks*>(user);
    const Complex* pj = c->cols + b * c->nw;
    Complex* dst = c->pair + b * c->nw;
    for (std::size_t k = 0; k < c->nw; ++k) dst[k] = std::conj(c->qi[k]) * pj[k];
  }
  /// Poisson kernel multiply in G space (interior node between the two
  /// pass stages).
  static void kernel_mul(void* user, std::size_t b) {
    const auto* c = static_cast<const PairHooks*>(user);
    Complex* dst = c->pair + b * c->nw;
    for (std::size_t k = 0; k < c->nw; ++k) dst[k] *= c->kern[k];
  }
  /// Write-out of the pair potential v = v_ij: the direct term
  /// -(alpha/2) f_i phi_i v into the window contribution buffer and, in the
  /// self-apply, the mirrored term -(alpha/2) f_j psi_j conj(v) (= the
  /// term of pair (j, i), since v_ji = conj(v_ij)) into the task's slice.
  static void write_out(void* user, std::size_t b) {
    const auto* c = static_cast<const PairHooks*>(user);
    const Complex* v = c->pair + b * c->nw;
    if (c->out) {
      Complex* dst = c->out + b * c->nw;
      for (std::size_t k = 0; k < c->nw; ++k) dst[k] = c->scale * c->qi[k] * v[k];
    }
    if (!c->mirror) return;
    if (b == 0) std::fill_n(c->mirror, c->nw, Complex{0.0, 0.0});
    const double f_j = c->occ[b];
    if (b < c->mirror_from || f_j <= kEmpty) return;
    const double s = c->neg_half_alpha * f_j;
    const Complex* pj = c->cols + b * c->nw;
    for (std::size_t k = 0; k < c->nw; ++k) c->mirror[k] += s * pj[k] * std::conj(v[k]);
  }
  /// Exchange energy of the pair: sum_G (K(G)/N) |FFT(conj(phi_i) phi_j)(G)|^2.
  static void kernel_norm(void* user, std::size_t b) {
    const auto* c = static_cast<const PairHooks*>(user);
    const Complex* p = c->pair + b * c->nw;
    double s = 0.0;
    for (std::size_t k = 0; k < c->nw; ++k) s += c->kern[k] * std::norm(p[k]);
    c->sums[b] = s;
  }
};

/// Partner columns [lo, hi) of the local block that one band pairs with.
struct ColumnRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

/// The part of `r` in column block `blk` (columns [blk * bs, (blk+1) * bs)).
ColumnRange in_block(ColumnRange r, std::size_t blk, std::size_t bs) {
  const std::size_t lo = std::max(r.lo, blk * bs);
  const std::size_t hi = std::min(r.hi, (blk + 1) * bs);
  return lo < hi ? ColumnRange{lo, hi} : ColumnRange{};
}

/// Runs the n (band-in-window, column-block) tasks of a window. Hybrid
/// band×line schedule: a window narrower than the engine runs its tasks
/// serially here so each task's pair-solve pipeline wins the pool — each
/// replays the persistent task graph cached for its block shape (one pool
/// wake per task). Identical per-task operations either way, so the choice
/// never changes results (docs/threading.md).
template <class F>
void run_tasks(std::size_t n, F&& task) {
  if (exec::prefer_line_split(n)) {
    task(std::size_t{0}, n);
  } else {
    exec::parallel_for(n, task);
  }
}

}  // namespace

FockOperator::FockOperator(const PlanewaveSetup& setup, xc::HybridParams hybrid, FockOptions opt)
    : setup_(setup),
      hybrid_(hybrid),
      opt_(opt),
      fft_wfc_(fft::shared_engine(setup.wfc_grid.dims())) {
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
  // Make K even on the grid: K at index x equals K at its mirror (n - x) mod
  // n per axis, which apply_self_add's v_ji = conj(v_ij) rests on. |G|^2 is
  // even, but on an even axis the grid folds +n/2 onto -n/2, so in a skewed
  // cell a Nyquist-plane point and its mirror carry different |G|; average
  // them. In an orthogonal cell the two values are equal and none changes.
  idx = 0;
  for (std::size_t z = 0; z < dims[2]; ++z) {
    for (std::size_t y = 0; y < dims[1]; ++y) {
      for (std::size_t x = 0; x < dims[0]; ++x, ++idx) {
        const std::size_t mx = (dims[0] - x) % dims[0];
        const std::size_t my = (dims[1] - y) % dims[1];
        const std::size_t mz = (dims[2] - z) % dims[2];
        const std::size_t m = mx + dims[0] * (my + dims[1] * mz);
        if (m > idx) kernel_[idx] = kernel_[m] = 0.5 * (kernel_[idx] + kernel_[m]);
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

template <class F>
void FockOperator::for_each_window(par::Comm& comm, F&& compute) {
  const std::size_t nw = setup_.n_wfc();
  const std::size_t nb = bands_.total();
  const std::size_t win = std::max<std::size_t>(1, opt_.band_window);
  auto fetch_bufs = exec::workspace().cbuf(exec::Slot::fock_fetch, 2 * win * nw);
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

  // Window pipeline (paper §3.2 step 5): the next window's broadcasts run
  // on the async lane while this window computes. The TaskGroup joins
  // in-flight prefetches even if the compute section throws, so a parked
  // broadcast can never outlive `this` or `comm`.
  exec::TaskGroup prefetch;
  fetch_window(0, win, current);
  for (std::size_t w0 = 0; w0 < nb; w0 += win) {
    if (w0 + win < nb) prefetch.run([=] { fetch_window(w0 + win, win, next); });
    compute(w0, std::min(win, nb - w0), current.data());
    prefetch.wait();  // rethrows a failed prefetch
    std::swap(current, next);
  }
}

void FockOperator::apply_add(const CMatrix& psi_local, CMatrix& y_local, par::Comm& comm) {
  PWDFT_CHECK(has_orbitals(), "FockOperator: orbitals not set");
  PWDFT_CHECK(psi_local.rows() == setup_.n_g() && y_local.rows() == setup_.n_g() &&
                  psi_local.cols() == y_local.cols(),
              "FockOperator: shape mismatch");
  // psi on the real-space wavefunction grid: fused scatter + batched FFT.
  CMatrix& psi_real = exec::workspace().cmat(exec::Slot::fock_psi_real, setup_.n_wfc(),
                                             psi_local.cols());
  if (psi_local.cols() > 0)
    grid::sphere_to_grid_many(*fft_wfc_, setup_.smap_wfc, psi_local, psi_real);
  apply_grid_add(psi_real, /*self=*/false, y_local, comm);
}

void FockOperator::apply_self_add(CMatrix& y_local, par::Comm& comm) {
  PWDFT_CHECK(has_orbitals(), "FockOperator: orbitals not set");
  PWDFT_CHECK(y_local.rows() == setup_.n_g() && y_local.cols() == phi_real_.cols(),
              "FockOperator: shape mismatch");
  apply_grid_add(phi_real_, /*self=*/true, y_local, comm);
}

void FockOperator::apply_grid_add(const CMatrix& psi_real, bool self, CMatrix& y_local,
                                  par::Comm& comm) {
  const std::size_t nw = setup_.n_wfc();
  const std::size_t ncol = psi_real.cols();
  if (ncol == 0) {
    // Still participate in the collective broadcasts (band order).
    for_each_window(comm, [](std::size_t, std::size_t, const Complex*) {});
    return;
  }
  auto& ws = exec::workspace();
  CMatrix& acc = ws.cmat(exec::Slot::fock_acc, nw, ncol);
  acc.fill(Complex{0.0, 0.0});
  const std::size_t bs = std::max<std::size_t>(1, opt_.batch_size);
  const std::size_t nblocks = (ncol + bs - 1) / bs;
  const std::size_t win = std::max<std::size_t>(1, opt_.band_window);
  const std::size_t o = self ? bands_.offset(comm.rank()) : 0;

  // Every pair task writes its direct terms into its own slice of
  // `contrib`, and in the self-apply its mirrored terms into its own slice
  // of `mirror`; the window is then reduced into `acc` in exact band order,
  // so the result is independent of the engine width AND of the window
  // size.
  auto contrib = ws.cbuf(exec::Slot::fock_win, win * ncol * nw);
  auto mirror = ws.cbuf(exec::Slot::fock_mirror, self ? win * nblocks * nw : 0);

  // Partner columns of band i. Alg. 2 pairs an occupied band with every
  // column. In the self-apply, the rank's own band i (column c = i - o)
  // pairs only with columns >= c, and with columns > c when f_i vanishes
  // (then only mirrored terms are needed), and not at all when no partner
  // is occupied either.
  auto columns = [&](std::size_t i) {
    const bool occupied = occ_[i] > kEmpty;
    if (!self || i < o || i >= o + ncol) return ColumnRange{0, occupied ? ncol : 0};
    const std::size_t c = i - o;
    if (occupied) return ColumnRange{c, ncol};
    const auto* f = occ_.data() + o;
    const bool partner = std::any_of(f + c + 1, f + ncol, [](double v) { return v > kEmpty; });
    return ColumnRange{c + 1, partner ? ncol : c + 1};
  };
  // Whether task (band i, block blk) writes a mirrored slice: a self-apply
  // task with a column above band i's own.
  auto has_mirror = [&](std::size_t i, std::size_t blk) {
    return self && i >= o && i < o + ncol && in_block(columns(i), blk, bs).hi > i - o + 1;
  };

  for_each_window(comm, [&](std::size_t w0, std::size_t wn, const Complex* orbitals) {
    // One task per (band-in-window, column block): the dominant O(Ne^2)
    // loop. Each task forms its pair densities in its own thread's arena
    // and runs the whole pair solve as one pipeline: the interior multiplies
    // are graph nodes chained between the pass stages, so the task is a
    // single cached-graph replay (keyed by the block shape jn), which runs
    // inline when the task itself runs on a worker.
    auto pair_block = [&](std::size_t tb, std::size_t te) {
      for (std::size_t t = tb; t < te; ++t) {
        const std::size_t il = t / nblocks;
        const std::size_t blk = t % nblocks;
        const std::size_t i = w0 + il;
        const ColumnRange r = in_block(columns(i), blk, bs);
        if (r.lo == r.hi) continue;
        const std::size_t jn = r.hi - r.lo;
        const double f_i = occ_[i];
        auto pair = exec::workspace().cbuf(exec::Slot::fock_pair, bs * nw);
        PairHooks h;
        h.qi = orbitals + il * nw;
        h.cols = psi_real.col(r.lo);
        h.pair = pair.data();
        h.kern = kernel_.data();
        h.nw = nw;
        h.scale = -hybrid_.alpha * 0.5 * f_i;
        if (f_i > kEmpty) h.out = contrib.data() + (il * ncol + r.lo) * nw;
        if (has_mirror(i, blk)) {
          h.mirror = mirror.data() + t * nw;
          h.occ = occ_.data() + o + r.lo;
          h.mirror_from = r.lo == i - o ? 1 : 0;
          h.neg_half_alpha = -hybrid_.alpha * 0.5;
        }
        const std::array<fft::Fft3D::Stage, 5> stages = {
            fft::Fft3D::Stage::make_hook(&PairHooks::form, &h),
            fft_wfc_->full_passes_stage(-1, pair.data()),
            fft::Fft3D::Stage::make_hook(&PairHooks::kernel_mul, &h),
            fft_wfc_->full_passes_stage(+1, pair.data()),
            fft::Fft3D::Stage::make_hook(&PairHooks::write_out, &h, h.mirror ? jn : 0)};
        fft_wfc_->run_pipeline(jn, stages);
      }
    };
    run_tasks(wn * nblocks, pair_block);
    for (std::size_t il = 0; il < wn; ++il) {
      const ColumnRange r = columns(w0 + il);
      pair_solves_ += r.hi - r.lo;
    }

    // Deterministic reduction: every element accumulates the window's bands
    // in band order — band i's direct term, then, at the rank's own band i
    // in a self-apply, band i's mirrored slices in block order; elements
    // are disjoint across chunks.
    Complex* acc_p = acc.data();
    exec::parallel_for_cols(
        ncol, nw, [&](std::size_t col, std::size_t r0, std::size_t len) {
          Complex* dst = acc_p + col * nw + r0;
          for (std::size_t il = 0; il < wn; ++il) {
            const std::size_t i = w0 + il;
            const ColumnRange r = in_block(columns(i), col / bs, bs);
            if (occ_[i] > kEmpty && col >= r.lo && col < r.hi) {
              const Complex* src = contrib.data() + (il * ncol + col) * nw + r0;
              for (std::size_t k = 0; k < len; ++k) dst[k] += src[k];
            }
            if (!self || i != o + col) continue;
            for (std::size_t blk = col / bs; blk < nblocks; ++blk) {
              if (!has_mirror(i, blk)) continue;
              const Complex* src = mirror.data() + (il * nblocks + blk) * nw + r0;
              for (std::size_t k = 0; k < len; ++k) dst[k] += src[k];
            }
          }
        });
  });

  // Back to sphere coefficients: c'(G) = forward(acc)(G) / (N * Omega), as
  // one fused batched FFT + gather.
  const double out_scale = 1.0 / (static_cast<double>(nw) * setup_.volume());
  CMatrix& coeffs = ws.cmat(exec::Slot::fock_coeffs, setup_.n_g(), ncol);
  grid::grid_to_sphere_many(*fft_wfc_, setup_.smap_wfc, acc, out_scale, coeffs);
  for (std::size_t j = 0; j < ncol; ++j)
    linalg::axpy(Complex{1.0, 0.0}, {coeffs.col(j), setup_.n_g()},
                 {y_local.col(j), setup_.n_g()});
}

double FockOperator::exchange_energy(par::Comm& comm) {
  PWDFT_CHECK(has_orbitals(), "FockOperator: orbitals not set");
  const std::size_t nw = setup_.n_wfc();
  const std::size_t ncol = phi_real_.cols();
  const int me = comm.rank();
  const std::size_t o = bands_.offset(me);
  const std::size_t bs = std::max<std::size_t>(1, opt_.batch_size);
  const std::size_t nblocks = (ncol + bs - 1) / bs;
  const std::size_t win = std::max<std::size_t>(1, opt_.band_window);

  // Partner columns of band i, so that each unordered pair {a < b} is
  // computed on exactly one rank: its own pairs (a, b >= a) on the owner,
  // and a pair across ranks p < q on q when a lies in the lower half of
  // p's block, else on p. Both sides see whole column ranges, and every
  // rank takes about half of its cross pairs.
  auto columns = [&](std::size_t i) {
    const int p = bands_.owner(i);
    if (p == me) return ColumnRange{i - o, ncol};
    if (p < me) {
      const bool lower = i - bands_.offset(p) < bands_.count(p) / 2;
      return ColumnRange{0, lower ? ncol : 0};
    }
    return ColumnRange{ncol / 2, ncol};
  };

  // One partial sum per (band-in-window, column block) task, added in task
  // order: the sum is independent of the engine width and window size.
  auto partial = exec::workspace().rbuf(exec::Slot::fock_win, win * nblocks);
  double e = 0.0;
  for_each_window(comm, [&](std::size_t w0, std::size_t wn, const Complex* orbitals) {
    auto pair_block = [&](std::size_t tb, std::size_t te) {
      for (std::size_t t = tb; t < te; ++t) {
        const std::size_t il = t / nblocks;
        const std::size_t i = w0 + il;
        const auto [lo, hi] = in_block(columns(i), t % nblocks, bs);
        partial[t] = 0.0;
        if (lo == hi || occ_[i] <= kEmpty) continue;
        auto& ws = exec::workspace();
        auto pair = ws.cbuf(exec::Slot::fock_pair, bs * nw);
        auto sums = ws.rbuf(exec::Slot::fock_pair, bs);
        PairHooks h;
        h.qi = orbitals + il * nw;
        h.cols = phi_real_.col(lo);
        h.pair = pair.data();
        h.kern = kernel_.data();
        h.nw = nw;
        h.sums = sums.data();
        const std::array<fft::Fft3D::Stage, 3> stages = {
            fft::Fft3D::Stage::make_hook(&PairHooks::form, &h),
            fft_wfc_->full_passes_stage(-1, pair.data()),
            fft::Fft3D::Stage::make_hook(&PairHooks::kernel_norm, &h)};
        fft_wfc_->run_pipeline(hi - lo, stages);
        double s = 0.0;
        for (std::size_t j = lo; j < hi; ++j) {
          const double f_j = occ_[o + j];
          if (f_j <= kEmpty) continue;
          s += (o + j == i ? 1.0 : 2.0) * f_j * sums[j - lo];
        }
        partial[t] = occ_[i] * s;
      }
    };
    run_tasks(wn * nblocks, pair_block);
    for (std::size_t t = 0; t < wn * nblocks; ++t) e += partial[t];
  });
  e *= -hybrid_.alpha / (4.0 * static_cast<double>(nw) * setup_.volume());
  comm.allreduce_sum(&e, 1);
  return e;
}

}  // namespace pwdft::ham
