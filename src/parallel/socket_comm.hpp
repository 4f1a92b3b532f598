#pragma once

/// \file socket_comm.hpp
/// Multi-process socket-backed implementation of the Comm interface.
///
/// N ranks living in N OS processes — forked by SocketGroup or launched
/// independently, each calling SocketComm::connect with its rank and the
/// shared rendezvous address — meet at a rank-0 rendezvous listener,
/// exchange peer-listener addresses (the JOIN/TABLE handshake), and build a
/// full mesh of stream sockets (unix or TCP loopback, following the
/// rendezvous transport). Every byte on those sockets travels as a
/// length-prefixed, FNV-1a-checksummed frame with the shared
/// common/frame.hpp layout (serve::wire's discipline, its own magic), so
/// a truncated, corrupt, or foreign frame is a typed CommError — never a
/// silent wrong answer, never a hang.
///
/// Determinism contract: allreduce_sum gathers every rank's contribution
/// to rank 0, folds them into a zero-initialized accumulator in rank
/// order 0..P-1 — the identical summation order as ThreadComm's
/// rendezvous allreduce — and broadcasts the result bytes. All collectives
/// are therefore bit-identical to the same program on ThreadComm
/// (pinned by tests/comm_conformance.hpp), and TransposeOverlap, written
/// against the Comm interface, inherits the backend for free.
///
/// Failure semantics: every blocking operation carries the
/// SocketCommOptions timeout (socket receive/send timeouts plus poll
/// deadlines), so a dead or wedged peer surfaces as CommError{kTimeout /
/// kPeerClosed / kTruncated / kCorrupt / ...} within the timeout. MPI
/// semantics apply: collectives, dup() included, must be issued in the same
/// order on every rank of a communicator; a frame from the wrong collective
/// is CommError{kProtocol}.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "parallel/comm.hpp"

namespace pwdft::par {

/// Typed failure cause carried by CommError. In-process only (never on the
/// wire), so values can be reordered freely.
enum class CommFault : int {
  kTimeout = 0,  ///< peer silent past the configured timeout
  kPeerClosed,   ///< peer closed or reset the connection between frames
  kTruncated,    ///< connection died mid-frame
  kCorrupt,      ///< frame arrived whole but failed its FNV-1a checksum
  kProtocol,     ///< well-formed frame from the wrong collective/peer/size
  kConnect,      ///< rendezvous or mesh connection could not be established
  kIo,           ///< any other socket-level failure
};

const char* comm_fault_name(CommFault f);

class CommError : public Error {
 public:
  CommError(CommFault fault, const std::string& what) : Error(what), fault_(fault) {}
  CommFault fault() const { return fault_; }

 private:
  CommFault fault_;
};

struct SocketCommOptions {
  /// Bound on every blocking socket operation (connect retries, accepts,
  /// frame sends/receives). A hung peer becomes CommError{kTimeout} within
  /// roughly this window instead of a deadlock.
  int timeout_ms = 30000;

  /// PWDFT_COMM_TIMEOUT_MS (strict parse, common/env.hpp).
  static SocketCommOptions from_env();
};

class SocketComm final : public Comm {
 public:
  /// Collective across the N processes, and the entry point for
  /// independently launched ranks: rank 0 listens on `rendezvous`
  /// ("unix:<path>" or "tcp:<host>:<port>"), ranks 1..N-1 dial it (with
  /// retry — rank 0 may not be up yet), and all end holding a full peer
  /// mesh. Throws CommError on timeout or a malformed handshake.
  static std::unique_ptr<SocketComm> connect(int rank, int nranks, const std::string& rendezvous,
                                             const SocketCommOptions& opts);

  ~SocketComm() override;
  SocketComm(const SocketComm&) = delete;
  SocketComm& operator=(const SocketComm&) = delete;

  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(fds_.size()); }

  void barrier() override;
  void bcast_bytes(void* data, std::size_t bytes, int root) override;
  void allreduce_sum(double* data, std::size_t count) override;
  void allreduce_sum(Complex* data, std::size_t count) override;
  void alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                       const std::size_t* send_displs, unsigned char* recv,
                       const std::size_t* recv_counts, const std::size_t* recv_displs) override;

  /// Collective: a second full mesh over fresh sockets among the same
  /// ranks — an independent rendezvous domain, so collectives on the
  /// duplicate never interleave with the parent's (the TransposeOverlap
  /// contract). The fresh listener addresses travel in the JOIN/TABLE
  /// handshake of connect(), over the parent's links to rank 0.
  std::unique_ptr<Comm> dup() override;

  /// Fault injection for the conformance harness: the NEXT outbound
  /// collective frame is damaged after encoding (so the checksum no longer
  /// matches) or cut off mid-frame. The receiving peer must observe a
  /// typed CommError, never a hang or a silent wrong answer.
  enum class Inject { kNone, kFlipPayloadByte, kTruncateFrame };
  void debug_inject_fault(Inject f) { inject_ = f; }

 private:
  SocketComm(int rank, std::vector<int> fds, SocketCommOptions opts, std::string mesh_hint);

  template <typename T>
  void allreduce_sum_impl(T* data, std::size_t count);

  /// [u64 seq][u32 op][u32 src] + data, as one checksummed frame.
  void send_collective(int dst, CommOp op, const unsigned char* data, std::size_t n);
  /// Receives and validates the matching frame; `expect` is the exact data
  /// size (a size mismatch between peers is kProtocol, as in ThreadComm).
  std::vector<std::uint8_t> recv_collective(int src, CommOp op, std::size_t expect);
  /// Simultaneous send/receive of raw frame bytes against two peers (or
  /// one) without blocking either direction — the alltoallv exchange step.
  void duplex_exchange(int dst, const std::uint8_t* out, std::size_t out_n, int src,
                       std::uint8_t* in, std::size_t in_n);

  int rank_ = 0;
  std::vector<int> fds_;  ///< peer fd per rank; own slot is -1
  SocketCommOptions opts_;
  /// "unix:<dir>" or "tcp:<host>": where dup() listeners go.
  std::string mesh_hint_;
  std::uint64_t seq_ = 0;  ///< collective call counter, validated per frame
  Inject inject_ = Inject::kNone;
};

/// Forks `nranks` child processes, each running `fn` over a SocketComm
/// mesh rendezvoused in a private temp directory — the multi-process
/// analogue of ThreadGroup::run, used by the conformance tests and the
/// scaling benches. The parent reaps every child under a hard deadline
/// (stragglers are SIGKILLed), so a deadlocked collective fails the caller
/// instead of hanging it.
class SocketGroup {
 public:
  using RankFn = std::function<void(Comm&)>;

  struct RankExit {
    bool signaled = false;   ///< child died on a signal
    bool timed_out = false;  ///< parent had to SIGKILL it at the deadline
    int code = 0;            ///< exit status, or the signal number
  };

  /// Runs the group and returns per-rank outcomes (exit 0 = fn returned,
  /// 3 = std::exception escaped, 4 = CommError escaped). Fault-injection
  /// tests that expect rank deaths inspect the vector themselves.
  static std::vector<RankExit> run_collect(int nranks, const RankFn& fn, int timeout_sec = 120);

  /// Runs the group and throws pwdft::Error unless every rank exited
  /// cleanly with status 0.
  static void run(int nranks, const RankFn& fn, int timeout_sec = 120);
};

}  // namespace pwdft::par
