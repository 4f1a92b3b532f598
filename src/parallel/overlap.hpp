#pragma once

/// \file overlap.hpp
/// Generalized communication/compute overlap for wavefunction transposes
/// (paper §3.2 step 5 applied to Alg. 3, generalizing the PR 2 idiom).
///
/// A WavefunctionTranspose call is three phases: pack (engine-parallel
/// column copies into the wire buffer), exchange (the Alltoallv), and
/// unpack (engine-parallel copies out). TransposeOverlap mounts those
/// phases around the caller's compute:
///
///   ovl.start_band_to_g(t, comm, psi, psi_g, sp);  // pack now, exchange parked
///   ham.apply(psi, hpsi, comm);                    // compute on the parent comm
///   ovl.wait();                                    // join exchange, unpack
///
/// start_*() packs on the calling thread (the pool parallelizes the column
/// copies), then parks ONLY the wire exchange on the exec engine's async
/// lane against a lazily dup()'ed communicator — an independent rendezvous
/// domain, so the in-flight Alltoallv can never interleave with the Fock
/// broadcasts (or any collective) the compute issues on the parent. wait()
/// joins the exchange and unpacks engine-parallel on the caller. The async
/// lane never wins the fork-join pool (docs/threading.md), so the parked
/// exchange cannot steal workers from the compute it hides behind.
///
/// Results are bit-identical to the synchronous call: pack/exchange/unpack
/// move bytes, they never reassociate arithmetic.
///
/// Wire buffers and the Alltoallv plan are owned by the instance
/// (monotonically grown and reused, and the parked exchange sits in an
/// inline exec::TaskGroup slot, so the instance allocates nothing in steady
/// state) rather than taken from the workspace arena: a synchronous
/// transpose — or a second TransposeOverlap — issued while an exchange is
/// in flight can therefore never alias the in-flight wires or plan.
///
/// Scheduling contract: start_*() and the first-use dup() are collective on
/// the parent; every rank must start/wait the same transposes in the same
/// order. One transpose may be in flight per instance; use one instance per
/// concurrent stream (each owns its own dup'ed rendezvous domain). The
/// owning thread must call start/wait; the destructor joins any in-flight
/// exchange.

#include <memory>
#include <vector>

#include "common/exec.hpp"
#include "linalg/matrix.hpp"
#include "parallel/comm.hpp"
#include "parallel/transpose.hpp"

namespace pwdft::par {

class TransposeOverlap {
 public:
  TransposeOverlap();
  ~TransposeOverlap();
  TransposeOverlap(const TransposeOverlap&) = delete;
  TransposeOverlap& operator=(const TransposeOverlap&) = delete;

  /// Packs band_local and parks the band->G exchange; g_out is written by
  /// wait().
  void start_band_to_g(const WavefunctionTranspose& t, Comm& comm, const CMatrix& band_local,
                       CMatrix& g_out, bool single_precision);

  /// Packs g_local and parks the G->band exchange; band_out is written by
  /// wait().
  void start_g_to_band(const WavefunctionTranspose& t, Comm& comm, const CMatrix& g_local,
                       CMatrix& band_out, bool single_precision);

  /// Joins the in-flight exchange (rethrowing its error, if any) and
  /// unpacks into the output matrix. No-op when nothing is in flight.
  void wait();

  /// Folds the dup'ed communicator's traffic into `parent`'s record so
  /// comm-volume accounting sees one total (bench/real_comm_volume, perf
  /// model validation) regardless of which domain carried the transpose.
  void fold_stats(Comm& parent);

 private:
  struct Pending;  // transpose.cpp

  void start(const WavefunctionTranspose& t, Comm& comm, const CMatrix& in, CMatrix& out,
             bool to_g, bool single_precision);

  std::unique_ptr<Comm> ocomm_;  ///< lazily dup'ed exchange domain
  std::vector<unsigned char> send_, recv_;  ///< instance-owned wire buffers
  std::unique_ptr<Pending> pending_;
  /// Declared last: destroyed (and joined) before the wires and the comm.
  exec::TaskGroup lane_;
};

}  // namespace pwdft::par
