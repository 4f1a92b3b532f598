// Verifies the workspace-arena contract: after a warm-up call, the hot paths
// (FockOperator::apply_add band loop and its window prefetch, the Fock
// self-apply and the exchange energy, AceOperator::apply_add with its two
// transposes and GEMMs, the overlapped TransposeOverlap start/wait,
// compute_density,
// hartree_potential, Hamiltonian::apply, AndersonMixer::mix and the per-band
// PT-CN mixing loop) perform no per-call heap allocations beyond their
// documented return values. Allocation counting works by overriding the global operator new
// for this test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/exec.hpp"
#include "common/random.hpp"
#include "ham/ace.hpp"
#include "ham/density.hpp"
#include "ham/fock.hpp"
#include "ham/hamiltonian.hpp"
#include "ham/hartree.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "parallel/comm.hpp"
#include "parallel/overlap.hpp"
#include "scf/anderson.hpp"
#include "td/band_ops.hpp"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pwdft {
namespace {

class AllocFreeHotPaths : public ::testing::Test {
 protected:
  AllocFreeHotPaths()
      : setup_(crystal::Crystal::silicon_supercell(1, 1, 1), 4.0, 1),
        species_(pseudo::PseudoSpecies::silicon(false)) {}

  static void SetUpTestSuite() { exec::set_num_threads(1); }

  /// Allocations performed by fn().
  template <class Fn>
  static std::size_t allocations(Fn&& fn) {
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    fn();
    return g_alloc_count.load(std::memory_order_relaxed) - before;
  }

  CMatrix orthonormal_block(std::size_t nb, std::uint64_t seed) {
    Rng rng(seed);
    CMatrix phi(setup_.n_g(), nb);
    for (std::size_t i = 0; i < phi.size(); ++i) phi.data()[i] = rng.complex_normal();
    CMatrix s = linalg::overlap(phi, phi);
    linalg::potrf_lower(s);
    linalg::trsm_right_lower_conj(phi, s);
    return phi;
  }

  ham::PlanewaveSetup setup_;
  pseudo::PseudoSpecies species_;
};

TEST_F(AllocFreeHotPaths, FockApplyAddAllocatesNothingAfterWarmup) {
  const std::size_t nb = 4;
  par::SerialComm comm;
  ham::FockOperator fock(setup_, xc::HybridParams{true, 0.25, 0.11});
  CMatrix phi = orthonormal_block(nb, 11);
  std::vector<double> occ(nb, 2.0);
  fock.set_orbitals(phi, occ, par::BlockPartition(nb, 1), comm);
  CMatrix y(setup_.n_g(), nb, Complex{0.0, 0.0});

  fock.apply_add(phi, y, comm);  // warm up every arena slot
  fock.apply_add(phi, y, comm);
  const std::size_t n_alloc = allocations([&] { fock.apply_add(phi, y, comm); });
  EXPECT_EQ(n_alloc, 0u) << "FockOperator::apply_add must draw all band-loop "
                            "buffers from the workspace arena";
}

TEST_F(AllocFreeHotPaths, FockWindowPrefetchAllocatesNothingAfterWarmup) {
  // Windows of 2 of 8 bands: three next-window broadcasts per apply run on
  // the async lane, each queued in an inline TaskGroup slot.
  const std::size_t nb = 8;
  par::SerialComm comm;
  ham::FockOptions fopt;
  fopt.band_window = 2;
  ham::FockOperator fock(setup_, xc::HybridParams{true, 0.25, 0.11}, fopt);
  CMatrix phi = orthonormal_block(nb, 41);
  std::vector<double> occ(nb, 2.0);
  fock.set_orbitals(phi, occ, par::BlockPartition(nb, 1), comm);
  CMatrix y(setup_.n_g(), nb, Complex{0.0, 0.0});

  fock.apply_add(phi, y, comm);  // warm up the arena slots and the lane
  fock.apply_add(phi, y, comm);
  const std::size_t n_alloc = allocations([&] { fock.apply_add(phi, y, comm); });
  EXPECT_EQ(n_alloc, 0u);
}

TEST_F(AllocFreeHotPaths, FockSelfApplyAllocatesNothingAfterWarmup) {
  // Batches of 3 of 8 bands in windows of 2: mirrored slices of several
  // column blocks, and prefetched windows.
  const std::size_t nb = 8;
  par::SerialComm comm;
  ham::FockOptions fopt;
  fopt.band_window = 2;
  fopt.batch_size = 3;
  ham::FockOperator fock(setup_, xc::HybridParams{true, 0.25, 0.11}, fopt);
  CMatrix phi = orthonormal_block(nb, 45);
  std::vector<double> occ(nb, 2.0);
  fock.set_orbitals(phi, occ, par::BlockPartition(nb, 1), comm);
  CMatrix y(setup_.n_g(), nb, Complex{0.0, 0.0});

  fock.apply_self_add(y, comm);  // warm up the arena slots, graphs and lane
  fock.apply_self_add(y, comm);
  const std::size_t n_alloc = allocations([&] { fock.apply_self_add(y, comm); });
  EXPECT_EQ(n_alloc, 0u);
}

TEST_F(AllocFreeHotPaths, ExchangeEnergyAllocatesNothingAfterWarmup) {
  const std::size_t nb = 8;
  par::SerialComm comm;
  ham::FockOptions fopt;
  fopt.band_window = 2;
  fopt.batch_size = 3;
  ham::FockOperator fock(setup_, xc::HybridParams{true, 0.25, 0.11}, fopt);
  CMatrix phi = orthonormal_block(nb, 47);
  std::vector<double> occ(nb, 2.0);
  fock.set_orbitals(phi, occ, par::BlockPartition(nb, 1), comm);

  fock.exchange_energy(comm);  // warm up the arena slots, graphs and lane
  fock.exchange_energy(comm);
  double e = 0.0;
  const std::size_t n_alloc = allocations([&] { e = fock.exchange_energy(comm); });
  EXPECT_EQ(n_alloc, 0u) << "the energy must need no per-call block";
  EXPECT_LT(e, 0.0);
}

TEST_F(AllocFreeHotPaths, TransposeOverlapRoundTripAllocatesNothingAfterWarmup) {
  // One band->G and one G->band start/wait: the plan, the wires and the
  // pending record belong to the instance, and the parked exchange sits in
  // an inline TaskGroup slot. The PT-CN loop makes two of these starts per
  // SCF iteration.
  const std::size_t nb = 4;
  par::SerialComm comm;
  par::WavefunctionTranspose t(par::BlockPartition(setup_.n_g(), 1),
                               par::BlockPartition(nb, 1));
  CMatrix psi = orthonormal_block(nb, 43);
  CMatrix psi_g, back;
  par::TransposeOverlap ovl;
  auto round_trip = [&] {
    ovl.start_band_to_g(t, comm, psi, psi_g, true);
    ovl.wait();
    ovl.start_g_to_band(t, comm, psi_g, back, true);
    ovl.wait();
  };
  round_trip();  // warm up: dup()'ed comm, plan, wires, outputs, lane helper
  round_trip();
  const std::size_t n_alloc = allocations(round_trip);
  EXPECT_EQ(n_alloc, 0u) << "TransposeOverlap start/wait must reuse its own "
                            "storage and the TaskGroup's inline slot";
}

TEST_F(AllocFreeHotPaths, AceApplyAddAllocatesNothingAfterWarmup) {
  // Two transposes (plan and wires from the arena), Xi^H psi through
  // overlap_into and -Xi P through the tiled gemm, all into ace_* slots.
  const std::size_t nb = 4;
  par::SerialComm comm;
  ham::FockOperator fock(setup_, xc::HybridParams{true, 0.25, 0.11});
  CMatrix phi = orthonormal_block(nb, 31);
  std::vector<double> occ(nb, 2.0);
  fock.set_orbitals(phi, occ, par::BlockPartition(nb, 1), comm);
  ham::AceOperator ace(setup_);
  ace.build(fock, phi, comm);
  CMatrix y(setup_.n_g(), nb, Complex{0.0, 0.0});

  ace.apply_add(phi, y, comm);  // warm up every arena slot
  ace.apply_add(phi, y, comm);
  const std::size_t n_alloc = allocations([&] { ace.apply_add(phi, y, comm); });
  EXPECT_EQ(n_alloc, 0u) << "AceOperator::apply_add must take its transpose plans, "
                            "wires and GEMM blocks from the workspace arena";
}

TEST_F(AllocFreeHotPaths, ComputeDensityAllocatesOnlyTheResult) {
  const std::size_t nb = 4;
  par::SerialComm comm;
  CMatrix psi = orthonormal_block(nb, 13);
  std::vector<double> occ(nb, 2.0);
  fft::Fft3D fft_dense(setup_.dense_grid.dims());

  (void)ham::compute_density(setup_, fft_dense, psi, occ, comm);  // warm up
  const std::size_t n_alloc = allocations(
      [&] { (void)ham::compute_density(setup_, fft_dense, psi, occ, comm); });
  // The returned rho vector is the only permitted allocation.
  EXPECT_LE(n_alloc, 1u);
}

TEST_F(AllocFreeHotPaths, HartreePotentialAllocatesOnlyTheResult) {
  par::SerialComm comm;
  CMatrix psi = orthonormal_block(2, 17);
  std::vector<double> occ(2, 2.0);
  fft::Fft3D fft_dense(setup_.dense_grid.dims());
  auto rho = ham::compute_density(setup_, fft_dense, psi, occ, comm);

  (void)ham::hartree_potential(setup_, fft_dense, rho);  // warm up
  const std::size_t n_alloc =
      allocations([&] { (void)ham::hartree_potential(setup_, fft_dense, rho); });
  EXPECT_LE(n_alloc, 1u);
}

TEST_F(AllocFreeHotPaths, AndersonMixAllocatesNothingAfterWarmup) {
  // The mixer's Gram system and update loop run directly on the ring-buffer
  // history columns with arena scratch — the last allocating step of a PT-CN
  // SCF iteration (ROADMAP follow-up).
  const std::size_t n = 256, depth = 4;
  scf::AndersonMixer mixer(n, depth, 0.4);
  Rng rng(23);
  std::vector<Complex> x(n), f(n);
  for (auto& v : x) v = rng.complex_normal();
  for (auto& v : f) v = rng.complex_normal();
  // Warm until the history ring and the arena Gram system reach full depth.
  for (std::size_t it = 0; it < depth + 2; ++it) {
    mixer.mix(x, f, x);
    for (auto& v : f) v *= 0.9;  // keep difference columns nonzero
  }
  const std::size_t n_alloc = allocations([&] { mixer.mix(x, f, x); });
  EXPECT_EQ(n_alloc, 0u) << "AndersonMixer::mix must draw its Gram system "
                            "from the workspace arena";
}

TEST_F(AllocFreeHotPaths, PerBandAndersonMixingLoopIsAllocationFree) {
  // The PT-CN mixing step: kinetic preconditioner, then the per-band mix.
  const std::size_t ng = setup_.n_g(), nb = 4;
  std::vector<std::unique_ptr<scf::AndersonMixer>> mixers;
  for (std::size_t j = 0; j < nb; ++j)
    mixers.push_back(std::make_unique<scf::AndersonMixer>(ng, 8, 0.2));
  Rng rng(29);
  CMatrix r(ng, nb), x(ng, nb);
  for (std::size_t i = 0; i < r.size(); ++i) r.data()[i] = rng.complex_normal();
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.complex_normal();
  const auto& g2 = setup_.sphere.g2();
  std::vector<double> kin(g2.begin(), g2.end());
  auto mix_step = [&] {
    td::detail::divide_kinetic_rows(0.1, kin, r);
    td::detail::anderson_mix_bands(mixers, r, x);
  };
  for (int it = 0; it < 10; ++it) {
    mix_step();
    for (std::size_t i = 0; i < r.size(); ++i) r.data()[i] *= 0.9;
  }
  const std::size_t n_alloc = allocations(mix_step);
  EXPECT_EQ(n_alloc, 0u);
}

TEST_F(AllocFreeHotPaths, HamiltonianLocalApplyIsArenaBacked) {
  par::SerialComm comm;
  ham::HamiltonianOptions opt;
  opt.hybrid.enabled = false;
  opt.use_nonlocal = false;
  ham::Hamiltonian h(setup_, species_, opt);
  CMatrix psi = orthonormal_block(4, 19);
  std::vector<double> occ(4, 2.0);
  auto rho = ham::compute_density(setup_, h.fft_dense(), psi, occ, comm);
  h.update_density(rho);

  CMatrix y;
  h.apply(psi, y, comm);  // warm up (y sized here)
  h.apply(psi, y, comm);
  const std::size_t n_alloc = allocations([&] { h.apply(psi, y, comm); });
  EXPECT_EQ(n_alloc, 0u);
}

}  // namespace
}  // namespace pwdft
