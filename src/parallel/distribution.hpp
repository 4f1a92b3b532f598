#pragma once

/// \file distribution.hpp
/// Data distributions for the hybrid parallelization scheme (paper §3.1):
/// wavefunctions live in the *band index* layout (each rank owns a
/// contiguous block of columns) for H*Psi, and are transposed into the
/// *G-space* layout (each rank owns a contiguous block of rows) for
/// overlap-matrix style GEMMs.

#include <algorithm>
#include <cstddef>

#include "common/check.hpp"

namespace pwdft::par {

/// Partition of [0, total) into `parts` contiguous near-equal blocks; the
/// first (total % parts) blocks get one extra element.
class BlockPartition {
 public:
  BlockPartition() = default;
  BlockPartition(std::size_t total, int parts) : total_(total), parts_(parts) {
    PWDFT_CHECK(parts >= 1, "BlockPartition: need at least one part");
  }

  std::size_t total() const { return total_; }
  int parts() const { return parts_; }

  std::size_t count(int p) const {
    check_part(p);
    const std::size_t base = total_ / parts_;
    const std::size_t rem = total_ % parts_;
    return base + (static_cast<std::size_t>(p) < rem ? 1 : 0);
  }

  std::size_t offset(int p) const {
    check_part(p);
    const std::size_t base = total_ / parts_;
    const std::size_t rem = total_ % parts_;
    const std::size_t up = static_cast<std::size_t>(p);
    return base * up + std::min(up, rem);
  }

  int owner(std::size_t index) const {
    PWDFT_CHECK(index < total_, "BlockPartition: index out of range");
    // Invert offset(): blocks of size base+1 come first.
    const std::size_t base = total_ / parts_;
    const std::size_t rem = total_ % parts_;
    const std::size_t big = (base + 1) * rem;
    if (index < big) return base + 1 == 0 ? 0 : static_cast<int>(index / (base + 1));
    return static_cast<int>(rem + (index - big) / base);
  }

 private:
  void check_part(int p) const {
    PWDFT_CHECK(p >= 0 && p < parts_, "BlockPartition: part " << p << " out of range");
  }
  std::size_t total_ = 0;
  int parts_ = 1;
};

/// The two partitions used by the hybrid scheme for one wavefunction set.
struct WavefunctionLayout {
  WavefunctionLayout() = default;
  WavefunctionLayout(std::size_t n_g, std::size_t n_bands, int nranks)
      : bands(n_bands, nranks), gvecs(n_g, nranks) {}
  BlockPartition bands;  ///< column (band-index) distribution
  BlockPartition gvecs;  ///< row (G-space) distribution
};

}  // namespace pwdft::par
