#pragma once

/// \file checkpoint.hpp
/// Crash-safe binary checkpointing of wavefunctions and generic double blobs
/// so long rt-TDDFT trajectories (the paper's production runs are 600 steps
/// / 30 fs) can be split across job allocations and survive preemption
/// (serve::JobEngine checkpoints every running job through this layer).
///
/// Durability contract:
///   - Saves go through io::atomic_write (io/frame_file.hpp): a saved
///     snapshot survives a power loss, a crash mid-write never destroys the
///     previous one, and a failed save throws io::WriteError naming the file
///     and errno, leaving no `<path>.tmp` behind.
///   - Format v3: each file is one common/frame frame of its family's
///     dialect (magic PWDFTPS / PWDFTBL, version '3'). The payload
///     is the six CheckpointMeta fields, fixed-width little-endian (no raw
///     struct dumps), then the data; the frame's FNV-1a-64 footer covers both.
///   - Loads reject short files, checksum mismatches, and trailing bytes,
///     checking the declared length before allocating; any version but v3
///     fails with "unsupported format version".

#include <cstdint>
#include <string>
#include <vector>

#include "ham/setup.hpp"
#include "linalg/matrix.hpp"

namespace pwdft::io {

struct CheckpointMeta {
  std::uint64_t n_g = 0;
  std::uint64_t n_bands = 0;
  std::uint64_t n_dense = 0;
  double ecut = 0.0;
  double time_au = 0.0;  ///< simulation time of the snapshot
  std::uint64_t step = 0;

  static CheckpointMeta from_setup(const ham::PlanewaveSetup& setup, std::size_t n_bands,
                                   double time_au, std::uint64_t step);
};

/// Writes wavefunctions (sphere coefficients, full band set) + metadata.
/// Atomic and durable (see the durability contract above).
void save_wavefunctions(const std::string& path, const CheckpointMeta& meta,
                        const CMatrix& psi);

/// Reads a checkpoint; throws pwdft::Error on a malformed file (bad magic,
/// unsupported version, short read, checksum mismatch, trailing bytes).
/// When `expected` is non-null its n_g/n_bands/ecut must match (restart
/// safety).
CheckpointMeta load_wavefunctions(const std::string& path, CMatrix& psi,
                                  const CheckpointMeta* expected = nullptr);

/// Generic double-vector snapshot in the same v3 envelope (own magic; the
/// frame length gives the element count — the meta shape fields describe
/// the *run*, not the blob). serve::JobEngine persists flattened
/// trajectory traces through this.
void save_blob(const std::string& path, const CheckpointMeta& meta,
               const std::vector<double>& data);
CheckpointMeta load_blob(const std::string& path, std::vector<double>& data);

}  // namespace pwdft::io
