#pragma once

/// Shared fixtures for the PT-PWDFT test suite: small silicon problems that
/// run in seconds, deterministic random states, and naive reference kernels.

#include <sys/resource.h>

#include <cmath>
#include <complex>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "crystal/crystal.hpp"
#include "ham/hamiltonian.hpp"
#include "ham/setup.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "pseudo/pseudopotential.hpp"

namespace pwdft::test {

/// Si8 cell at a reduced cutoff: ~500 planewaves, 16 bands; runs in seconds.
inline ham::PlanewaveSetup make_si8_setup(double ecut = 4.0, int dense_factor = 1) {
  return ham::PlanewaveSetup(crystal::Crystal::silicon_supercell(1, 1, 1), ecut, dense_factor);
}

inline ham::HamiltonianOptions fast_hybrid_options() {
  ham::HamiltonianOptions opt;
  opt.hybrid.enabled = true;
  opt.hybrid.alpha = 0.25;
  opt.hybrid.omega = 0.11;
  opt.use_nonlocal = true;
  return opt;
}

/// Deterministic random orthonormal block of `nb` orbitals.
inline CMatrix random_orthonormal(const ham::PlanewaveSetup& setup, std::size_t nb,
                                  std::uint64_t seed = 7) {
  Rng rng(seed);
  CMatrix psi(setup.n_g(), nb);
  const auto& g2 = setup.sphere.g2();
  for (std::size_t j = 0; j < nb; ++j)
    for (std::size_t i = 0; i < setup.n_g(); ++i)
      psi(i, j) = rng.complex_normal() / (1.0 + g2[i]);
  CMatrix s = linalg::overlap(psi, psi);
  linalg::potrf_lower(s);
  linalg::trsm_right_lower_conj(psi, s);
  return psi;
}

/// Naive O(n^2) reference DFT, sign=-1 forward convention.
inline std::vector<Complex> naive_dft(const std::vector<Complex>& x, int sign) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n, Complex{0, 0});
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t m = 0; m < n; ++m) {
      const double ang = sign * constants::two_pi * static_cast<double>(k * m) /
                         static_cast<double>(n);
      out[k] += x[m] * Complex{std::cos(ang), std::sin(ang)};
    }
  }
  return out;
}

inline double max_abs_diff(const CMatrix& a, const CMatrix& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  return m;
}

/// Extracts the local band slice of a full wavefunction block.
inline CMatrix band_slice(const CMatrix& psi_full, const par::BlockPartition& bands, int rank) {
  CMatrix out(psi_full.rows(), bands.count(rank));
  for (std::size_t j = 0; j < out.cols(); ++j)
    for (std::size_t i = 0; i < out.rows(); ++i)
      out(i, j) = psi_full(i, bands.offset(rank) + j);
  return out;
}

/// Disk-full fault from outside the library: lowers this process's soft
/// RLIMIT_FSIZE with SIGXFSZ ignored, so a write that would grow a file past
/// `bytes` fails with EFBIG. Restores both on scope exit.
struct FileSizeLimit {
  explicit FileSizeLimit(rlim_t bytes) : handler(std::signal(SIGXFSZ, SIG_IGN)) {
    PWDFT_CHECK(::getrlimit(RLIMIT_FSIZE, &saved) == 0, "getrlimit failed");
    const rlimit lowered{bytes, saved.rlim_max};
    PWDFT_CHECK(::setrlimit(RLIMIT_FSIZE, &lowered) == 0, "setrlimit failed");
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, handler);
  }
  void (*handler)(int);
  rlimit saved{};
};

/// Private scratch directory: mkdtemp() gives it a unique name, so two
/// runs of one test binary at once (say a Release and a TSan build)
/// never share or delete each other's files. Removed with its contents on
/// scope exit.
struct ScratchDir {
  explicit ScratchDir(const std::string& tag) : path("/tmp/pwdft_" + tag + "_XXXXXX") {
    PWDFT_CHECK(::mkdtemp(path.data()) != nullptr, "mkdtemp failed for " << path);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

}  // namespace pwdft::test
