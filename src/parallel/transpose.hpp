#pragma once

/// \file transpose.hpp
/// Band-index <-> G-space transposes via Alltoallv (paper §3.1, Fig. 1).
///
/// Band layout:  local matrix is (n_g  x  nb_local), bands [b0, b0+nb_local).
/// G layout:     local matrix is (ng_local x nb_total), rows [g0, g0+ng_local).
///
/// Payloads can be sent in double precision or converted to single precision
/// for the wire (paper §3.2 optimization 4 / §3.3), mirroring the
/// communication-volume halving on Summit; data is converted back to double
/// on arrival.
///
/// The Alltoallv plan (counts, displacements) and the wire buffers come from
/// the calling thread's workspace arena, so steady-state calls allocate
/// nothing (tests/test_alloc_free.cpp, through AceOperator::apply_add), and
/// the pack/unpack column copies run on the exec engine (bit-identical at
/// any thread count). Both methods are collectives
/// on `comm`. Internally each call is three phases — pack, exchange, unpack
/// — and par::TransposeOverlap (overlap.hpp) mounts those phases around
/// caller compute: pack up front, the exchange parked on the exec engine's
/// async lane against a Comm::dup()'ed communicator, unpack at wait().

#include "linalg/matrix.hpp"
#include "parallel/comm.hpp"
#include "parallel/distribution.hpp"

namespace pwdft::par {

class WavefunctionTranspose {
 public:
  WavefunctionTranspose() = default;
  WavefunctionTranspose(BlockPartition gvecs, BlockPartition bands)
      : gvecs_(gvecs), bands_(bands) {}

  /// band_local: (n_g x nb_local) -> g_local: (ng_local x nb_total).
  void band_to_g(Comm& comm, const CMatrix& band_local, CMatrix& g_local,
                 bool single_precision) const;

  /// g_local: (ng_local x nb_total) -> band_local: (n_g x nb_local).
  void g_to_band(Comm& comm, const CMatrix& g_local, CMatrix& band_local,
                 bool single_precision) const;

  const BlockPartition& gvecs() const { return gvecs_; }
  const BlockPartition& bands() const { return bands_; }

 private:
  BlockPartition gvecs_;
  BlockPartition bands_;
};

}  // namespace pwdft::par
