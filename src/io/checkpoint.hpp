#pragma once

/// \file checkpoint.hpp
/// Crash-safe binary checkpointing of wavefunctions, densities, and generic
/// double blobs so long rt-TDDFT trajectories (the paper's production runs
/// are 600 steps / 30 fs) can be split across job allocations and survive
/// preemption (serve::JobEngine checkpoints every running job through this
/// layer).
///
/// Durability contract:
///   - Saves are atomic: the payload is written to `<path>.tmp`, flushed,
///     and renamed into place, so a crash mid-write can never destroy the
///     previous good snapshot or leave a torn file at the final path.
///   - Format v2: an 8-byte magic whose last byte is the format version,
///     the CheckpointMeta serialized field-by-field (fixed-width
///     little-endian, no raw struct dumps), the payload, and a trailing
///     FNV-1a-64 checksum over header + payload, validated on load.
///   - Loads reject short files, checksum mismatches, and trailing bytes
///     after the checksum (garbage appended to a snapshot used to load
///     silently); any version other than v2 fails with a clear message.

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
/// Atomic: `<path>.tmp` + rename (see the durability contract above).
void save_wavefunctions(const std::string& path, const CheckpointMeta& meta,
                        const CMatrix& psi);

/// Reads a checkpoint; throws pwdft::Error on a malformed file (bad magic,
/// unsupported version, short read, checksum mismatch, trailing bytes).
/// When `expected` is non-null its n_g/n_bands/ecut must match (restart
/// safety).
CheckpointMeta load_wavefunctions(const std::string& path, CMatrix& psi,
                                  const CheckpointMeta* expected = nullptr);

/// Dense-grid density snapshots. Same durability contract.
void save_density(const std::string& path, const CheckpointMeta& meta,
                  const std::vector<double>& rho);
CheckpointMeta load_density(const std::string& path, std::vector<double>& rho,
                            const CheckpointMeta* expected = nullptr);

/// Generic double-vector snapshot in the same v2 envelope (own magic, own
/// element count — the meta shape fields describe the *run*, not the blob).
/// serve::JobEngine persists flattened trajectory traces through this.
void save_blob(const std::string& path, const CheckpointMeta& meta,
               const std::vector<double>& data);
CheckpointMeta load_blob(const std::string& path, std::vector<double>& data);

}  // namespace pwdft::io
