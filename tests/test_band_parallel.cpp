// Proves the band-parallel determinism contract (docs/threading.md): the
// Fock apply, the density accumulation, the Hamiltonian apply, LOBPCG, and a
// full PT-CN step are bit-identical at 1/2/4 engine threads, and a transpose
// in flight during a Fock apply leaves both results byte-identical to their
// synchronous forms.

#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec.hpp"
#include "ham/density.hpp"
#include "ham/fock.hpp"
#include "ham/hamiltonian.hpp"
#include "parallel/overlap.hpp"
#include "parallel/thread_comm.hpp"
#include "scf/lobpcg.hpp"
#include "td/field.hpp"
#include "td/ptcn.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

/// Restores the engine width on scope exit so tests compose.
struct ThreadGuard {
  ~ThreadGuard() { exec::set_num_threads(1); }
};

constexpr std::size_t kThreadCounts[] = {1, 2, 4};

TEST(BandParallel, FockApplyBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  const std::size_t nb = 6;
  CMatrix phi = test::random_orthonormal(setup, nb, 31);
  std::vector<double> occ(nb, 2.0);
  occ[nb - 1] = 0.0;  // exercise the unoccupied-band skip in the reduction
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix ref;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    ham::FockOperator fock(setup, xc::HybridParams{true, 0.25, 0.11});
    fock.set_orbitals(phi, occ, bands, comm);
    CMatrix y(setup.n_g(), nb, Complex{0.0, 0.0});
    fock.apply_add(phi, y, comm);
    if (nt == 1) {
      ref = y;
    } else {
      EXPECT_EQ(test::max_abs_diff(y, ref), 0.0) << "nt=" << nt;
    }
  }
}

TEST(BandParallel, FockApplyIndependentOfBandWindowAndBatchGrouping) {
  // The windowed reduction accumulates in exact band order, so the result
  // must not depend on the window size (and batch grouping only changes
  // which FFTs share a batch, never their math).
  ThreadGuard guard;
  exec::set_num_threads(4);
  auto setup = test::make_si8_setup(3.0, 1);
  const std::size_t nb = 6;
  CMatrix phi = test::random_orthonormal(setup, nb, 33);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix ref;
  for (std::size_t window : {1u, 3u, 8u}) {
    ham::FockOptions fopt;
    fopt.band_window = window;
    ham::FockOperator fock(setup, xc::HybridParams{true, 0.25, 0.11}, fopt);
    fock.set_orbitals(phi, occ, bands, comm);
    CMatrix y(setup.n_g(), nb, Complex{0.0, 0.0});
    fock.apply_add(phi, y, comm);
    if (window == 1) {
      ref = y;
    } else {
      EXPECT_EQ(test::max_abs_diff(y, ref), 0.0) << "window=" << window;
    }
  }
}

TEST(BandParallel, DensityBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  const std::size_t nb = 7;  // ragged against the chunk count
  CMatrix psi = test::random_orthonormal(setup, nb, 37);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  fft::Fft3D fft_dense(setup.dense_grid.dims());

  std::vector<double> ref;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    auto rho = ham::compute_density(setup, fft_dense, psi, occ, comm);
    if (nt == 1) {
      ref = rho;
    } else {
      ASSERT_EQ(rho.size(), ref.size());
      for (std::size_t i = 0; i < rho.size(); ++i)
        ASSERT_EQ(rho[i], ref[i]) << "i=" << i << " nt=" << nt;
    }
  }
}

TEST(BandParallel, HamiltonianApplyBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  auto options = test::fast_hybrid_options();
  const std::size_t nb = 6;
  CMatrix psi = test::random_orthonormal(setup, nb, 41);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix ref;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    ham::Hamiltonian h(setup, species, options);
    auto rho = ham::compute_density(setup, h.fft_dense(), psi, occ, comm);
    h.update_density(rho);
    h.set_exchange_orbitals(psi, occ, bands, comm);
    CMatrix y;
    h.apply(psi, y, comm);
    if (nt == 1) {
      ref = y;
    } else {
      EXPECT_EQ(test::max_abs_diff(y, ref), 0.0) << "nt=" << nt;
    }
  }
}

TEST(BandParallel, LobpcgBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  ham::HamiltonianOptions options;  // semi-local keeps the solve cheap
  options.hybrid.enabled = false;
  const std::size_t nb = 4;
  CMatrix x0 = test::random_orthonormal(setup, nb, 43);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;

  CMatrix ref;
  std::vector<double> ref_evals;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    ham::Hamiltonian h(setup, species, options);
    auto rho = ham::compute_density(setup, h.fft_dense(), x0, occ, comm);
    h.update_density(rho);
    scf::ApplyFn apply = [&](const CMatrix& in, CMatrix& out) { h.apply(in, out, comm); };
    std::vector<double> precond(setup.n_g());
    for (std::size_t i = 0; i < setup.n_g(); ++i) precond[i] = 0.5 * setup.sphere.g2()[i];
    CMatrix x = x0;
    scf::LobpcgOptions lopt;
    lopt.max_iter = 5;
    lopt.tol = 0.0;  // fixed iteration count: identical work at every width
    auto res = scf::lobpcg(apply, precond, x, lopt);
    if (nt == 1) {
      ref = x;
      ref_evals = res.eigenvalues;
    } else {
      EXPECT_EQ(test::max_abs_diff(x, ref), 0.0) << "nt=" << nt;
      ASSERT_EQ(res.eigenvalues.size(), ref_evals.size());
      for (std::size_t j = 0; j < nb; ++j) ASSERT_EQ(res.eigenvalues[j], ref_evals[j]);
    }
  }
}

TEST(BandParallel, PtCnStepBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::size_t nb = 8;
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);
  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-8;
  opt.max_scf = 8;
  par::SerialComm comm;

  CMatrix ref;
  int ref_iters = -1;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    auto setup = test::make_si8_setup(3.0, 1);
    auto species = pseudo::PseudoSpecies::silicon(true);
    ham::Hamiltonian h(setup, species, test::fast_hybrid_options());
    CMatrix psi = test::random_orthonormal(setup, nb, 47);
    std::vector<double> occ(nb, 2.0);
    td::PtCnPropagator prop(h, par::BlockPartition(nb, 1), opt, 1);
    auto rep = prop.step(psi, occ, 0.0, kick, comm);
    if (nt == 1) {
      ref = psi;
      ref_iters = rep.scf_iterations;
    } else {
      EXPECT_EQ(rep.scf_iterations, ref_iters) << "nt=" << nt;
      EXPECT_EQ(test::max_abs_diff(psi, ref), 0.0) << "nt=" << nt;
    }
  }
}

TEST(BandParallel, DensityLineSplitBitIdenticalToBandPath) {
  // Hybrid band×line schedule: with fewer bands than threads (nb = 3 at
  // width 4) the density runs as one whole-operator pipeline; at widths 1
  // and 2 it takes the band path. Same per-line kernels, same fixed-chunk
  // reduction — byte-identical across the switch.
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  const std::size_t nb = 3;
  CMatrix psi = test::random_orthonormal(setup, nb, 59);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  fft::Fft3D fft_dense(setup.dense_grid.dims());

  std::vector<double> ref;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    auto rho = ham::compute_density(setup, fft_dense, psi, occ, comm);
    if (ref.empty()) {
      ref = rho;
    } else {
      ASSERT_EQ(rho.size(), ref.size());
      for (std::size_t i = 0; i < rho.size(); ++i)
        ASSERT_EQ(rho[i], ref[i]) << "i=" << i << " nt=" << nt;
    }
  }
}

TEST(BandParallel, HamiltonianApplyLineSplitBitIdenticalToBandPath) {
  // Narrow block (2 bands): the band path at widths 1 and 2, the
  // whole-operator pipeline at width 4. The pipeline must reproduce the
  // band-parallel loop byte for byte, including the Fock term, whose narrow
  // windows switch to the band-serial/line-parallel schedule.
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  const std::size_t nb = 2;
  CMatrix psi = test::random_orthonormal(setup, nb, 61);
  std::vector<double> occ(nb, 2.0);
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix ref;
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    ham::Hamiltonian h(setup, species, test::fast_hybrid_options());
    auto rho = ham::compute_density(setup, h.fft_dense(), psi, occ, comm);
    h.update_density(rho);
    h.set_exchange_orbitals(psi, occ, bands, comm);
    CMatrix y;
    h.apply(psi, y, comm);
    if (ref.empty()) {
      ref = y;
    } else {
      EXPECT_EQ(test::max_abs_diff(y, ref), 0.0) << "nt=" << nt;
    }
  }
}

TEST(BandParallel, FockLineSplitBitIdenticalAcrossWindowAndWidth) {
  // The Fock pair-solve pipelines, wide and narrow windows, at widths
  // 1/2/4 — for the general apply, the self-apply (its mirrored slices
  // over two column blocks, a half-filled and an empty band) and the
  // pair-density exchange energy. band_window = 1 at batch 4 gives each
  // window 2 tasks, fewer than width 4: the band-serial/line-parallel
  // schedule, against the band-parallel one everywhere else.
  ThreadGuard guard;
  auto setup = test::make_si8_setup(3.0, 1);
  const std::size_t nb = 6;
  CMatrix phi = test::random_orthonormal(setup, nb, 79);
  std::vector<double> occ = {2.0, 2.0, 1.0, 2.0, 0.0, 2.0};
  par::SerialComm comm;
  par::BlockPartition bands(nb, 1);

  CMatrix ref, ref_self;
  double ref_energy = 0.0;
  for (std::size_t window : {1u, 4u}) {
    for (std::size_t nt : kThreadCounts) {
      exec::set_num_threads(nt);
      ham::FockOptions fopt;
      fopt.band_window = window;
      fopt.batch_size = 4;
      ham::FockOperator fock(setup, xc::HybridParams{true, 0.25, 0.11}, fopt);
      fock.set_orbitals(phi, occ, bands, comm);
      CMatrix y(setup.n_g(), nb, Complex{0.0, 0.0});
      fock.apply_add(phi, y, comm);
      CMatrix y_self(setup.n_g(), nb, Complex{0.0, 0.0});
      fock.apply_self_add(y_self, comm);
      const double energy = fock.exchange_energy(comm);
      if (ref.empty()) {
        ref = y;
        ref_self = y_self;
        ref_energy = energy;
      } else {
        const std::string where = "nt=" + std::to_string(nt) + " window=" + std::to_string(window);
        EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(Complex)), 0) << where;
        EXPECT_EQ(std::memcmp(y_self.data(), ref_self.data(), y.size() * sizeof(Complex)), 0)
            << where;
        EXPECT_EQ(std::memcmp(&energy, &ref_energy, sizeof(double)), 0) << where;
      }
    }
  }
}

TEST(BandParallel, TransposeInFlightDuringFockApplyIsBitwise) {
  // The PT-CN overlap pattern (ptcn.cpp): a transpose's exchange is parked
  // on the async lane against its dup()'ed communicator while the Fock apply
  // prefetches its window broadcasts on the same lane over the parent. Two
  // thread-backed ranks, engine at 4 threads: the transposed blocks must
  // equal the synchronous transposes, and the Fock result an apply with
  // nothing in flight, byte for byte.
  ThreadGuard guard;
  exec::set_num_threads(4);
  const int np = 2;
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  CMatrix phi = test::random_orthonormal(setup, nb, 53);
  CMatrix x = test::random_orthonormal(setup, nb, 59);
  std::vector<double> occ(nb, 2.0);
  auto same_bytes = [](const CMatrix& a, const CMatrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
  };

  for (bool sp : {false, true}) {
    par::ThreadGroup::run(np, [&](par::Comm& c) {
      auto setup_loc = test::make_si8_setup(3.0, 1);
      par::BlockPartition bands(nb, np);
      par::WavefunctionTranspose tr(par::BlockPartition(setup_loc.n_g(), np), bands);
      ham::FockOptions fopt;
      fopt.band_window = 2;  // several windows, so several prefetches
      ham::FockOperator fock(setup_loc, xc::HybridParams{true, 0.25, 0.11}, fopt);
      fock.set_orbitals(test::band_slice(phi, bands, c.rank()), occ, bands, c);
      const CMatrix x_loc = test::band_slice(x, bands, c.rank());

      CMatrix y_ref(setup_loc.n_g(), x_loc.cols(), Complex{0, 0});
      fock.apply_add(x_loc, y_ref, c);
      CMatrix g_ref, band_ref;
      tr.band_to_g(c, x_loc, g_ref, sp);
      tr.g_to_band(c, g_ref, band_ref, sp);

      par::TransposeOverlap ovl;
      CMatrix g, y(setup_loc.n_g(), x_loc.cols(), Complex{0, 0});
      ovl.start_band_to_g(tr, c, x_loc, g, sp);
      fock.apply_add(x_loc, y, c);
      ovl.wait();
      EXPECT_TRUE(same_bytes(g, g_ref)) << "band_to_g rank " << c.rank() << " sp=" << sp;
      EXPECT_TRUE(same_bytes(y, y_ref)) << "Fock rank " << c.rank() << " sp=" << sp;

      CMatrix band, y2(setup_loc.n_g(), x_loc.cols(), Complex{0, 0});
      ovl.start_g_to_band(tr, c, g_ref, band, sp);
      fock.apply_add(x_loc, y2, c);
      ovl.wait();
      EXPECT_TRUE(same_bytes(band, band_ref)) << "g_to_band rank " << c.rank() << " sp=" << sp;
      EXPECT_TRUE(same_bytes(y2, y_ref)) << "Fock rank " << c.rank() << " sp=" << sp;
    });
  }
}

TEST(BandParallel, PtCnStepTwoRanksBitIdenticalAcrossThreadCounts) {
  // Engine widths {1, 2, 4} on two thread-backed ranks: all three PT-CN
  // runs must produce the same bytes. The overlapped transposes only move
  // their exchange onto the async lane; pack/unpack stay engine-ordered and
  // the arithmetic never changes.
  ThreadGuard guard;
  const int np = 2;
  const std::size_t nb = 8;
  auto setup = test::make_si8_setup(3.0, 1);
  CMatrix psi_init = test::random_orthonormal(setup, nb, 83);
  std::vector<double> occ(nb, 2.0);
  td::DeltaKick kick({0.0, 0.0, 0.02}, -1.0);

  td::PtCnOptions opt;
  opt.dt = 1.0;
  opt.rho_tol = 1e-8;
  opt.max_scf = 5;

  std::vector<CMatrix> ref(np);
  for (std::size_t nt : kThreadCounts) {
    exec::set_num_threads(nt);
    std::vector<CMatrix> per_rank(np);
    par::ThreadGroup::run(np, [&](par::Comm& c) {
      auto setup_loc = test::make_si8_setup(3.0, 1);
      auto species = pseudo::PseudoSpecies::silicon(true);
      ham::Hamiltonian h(setup_loc, species, test::fast_hybrid_options());
      par::BlockPartition bands(nb, np);
      CMatrix psi_loc = test::band_slice(psi_init, bands, c.rank());
      td::PtCnPropagator prop(h, bands, opt, np);
      prop.step(psi_loc, occ, 0.0, kick, c);
      per_rank[c.rank()] = std::move(psi_loc);
    });
    if (ref[0].size() == 0) {
      ref = std::move(per_rank);
    } else {
      for (int r = 0; r < np; ++r)
        EXPECT_EQ(test::max_abs_diff(per_rank[r], ref[r]), 0.0) << "rank " << r << " nt=" << nt;
    }
  }
}

}  // namespace
}  // namespace pwdft
