#pragma once

/// \file comm.hpp
/// Message-passing abstraction ("vmpi") standing in for MPI.
///
/// All distributed algorithms in this library (Alg. 2 Fock broadcast
/// pipeline, Alg. 3 residual evaluation, density Allreduce, wavefunction
/// transposes) are written against this interface, exactly as the paper's
/// PWDFT is written against MPI. Three implementations exist:
///   - SerialComm: the 1-rank case, all ops are local no-ops/copies;
///   - ThreadComm: N ranks as threads in one process with rendezvous
///     collectives (see thread_comm.hpp);
///   - SocketComm: N ranks as OS processes over a socket mesh (see
///     socket_comm.hpp).
/// The interface carries exactly the operations the engine calls: the
/// paper's three collectives (Bcast in the Fock loop, Alltoallv and
/// Allreduce in the residual, orthonormalization and density), barrier, and
/// dup(), the one way to obtain an independent rendezvous domain on the same
/// rank set. There is no point-to-point traffic. The engine runs one flat
/// communicator over all ranks.
/// Every operation records call counts, payload bytes, and wall time into
/// CommStats; the perf model validates its volume formulas (paper §7)
/// against these measured numbers.

#include <array>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string>

#include "common/types.hpp"

namespace pwdft::par {

enum class CommOp : int {
  kBcast = 0,
  kAllreduce,
  kAlltoallv,
  kBarrier,
  kCount
};

const char* comm_op_name(CommOp op);

struct OpStats {
  std::size_t calls = 0;
  std::size_t bytes = 0;  ///< receive-side payload volume
  double seconds = 0.0;
};

/// Per-rank accumulated communication statistics.
class CommStats {
 public:
  void add(CommOp op, std::size_t bytes, double seconds) {
    auto& s = ops_[static_cast<int>(op)];
    ++s.calls;
    s.bytes += bytes;
    s.seconds += seconds;
  }
  const OpStats& get(CommOp op) const { return ops_[static_cast<int>(op)]; }
  /// Folds another rank-local record into this one (used to account traffic
  /// carried by a dup()'ed overlap communicator on its parent).
  void merge(const CommStats& other) {
    for (int op = 0; op < static_cast<int>(CommOp::kCount); ++op) {
      ops_[op].calls += other.ops_[op].calls;
      ops_[op].bytes += other.ops_[op].bytes;
      ops_[op].seconds += other.ops_[op].seconds;
    }
  }
  void reset() { ops_ = {}; }

 private:
  std::array<OpStats, static_cast<int>(CommOp::kCount)> ops_{};
};

/// Abstract communicator. Every method but rank() and size() is collective;
/// every rank of the communicator must call them in the same order (MPI
/// semantics).
class Comm {
 public:
  virtual ~Comm() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  virtual void barrier() = 0;
  virtual void bcast_bytes(void* data, std::size_t bytes, int root) = 0;
  virtual void allreduce_sum(double* data, std::size_t count) = 0;
  virtual void allreduce_sum(Complex* data, std::size_t count) = 0;
  /// Byte-granularity all-to-all; counts/displs arrays have size() entries.
  virtual void alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                               const std::size_t* send_displs, unsigned char* recv,
                               const std::size_t* recv_counts, const std::size_t* recv_displs) = 0;

  /// Collective: every rank obtains a communicator with the same ranks but
  /// an independent rendezvous domain (MPI_Comm_dup). Collectives on the
  /// duplicate never interleave with collectives on the parent, which is
  /// what makes it safe to run a transpose on the exec engine's async lane
  /// while the Fock band loop broadcasts on the parent (paper §3.2 step 5).
  /// The duplicate records its own CommStats; merge() them into the parent
  /// if the traffic should be accounted together.
  virtual std::unique_ptr<Comm> dup() = 0;

  /// Typed broadcast convenience.
  template <typename T>
  void bcast(T* data, std::size_t count, int root) {
    bcast_bytes(static_cast<void*>(data), count * sizeof(T), root);
  }

  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

 protected:
  CommStats stats_;
};

/// Single-rank communicator; every collective is a local no-op.
class SerialComm final : public Comm {
 public:
  int rank() const override { return 0; }
  int size() const override { return 1; }
  void barrier() override;
  void bcast_bytes(void* data, std::size_t bytes, int root) override;
  void allreduce_sum(double* data, std::size_t count) override;
  void allreduce_sum(Complex* data, std::size_t count) override;
  void alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                       const std::size_t* send_displs, unsigned char* recv,
                       const std::size_t* recv_counts, const std::size_t* recv_displs) override;
  std::unique_ptr<Comm> dup() override;
};

}  // namespace pwdft::par
