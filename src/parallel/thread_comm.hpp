#pragma once

/// \file thread_comm.hpp
/// Thread-backed implementation of the Comm interface.
///
/// ThreadGroup::run(n, fn) launches n ranks as std::threads; each receives a
/// ThreadComm bound to a shared rendezvous area. Collectives follow a
/// publish / barrier / read / barrier protocol, which gives true MPI
/// semantics (every rank sees every other rank's payload of the *same*
/// collective call) without any serialization of the algorithm code; the
/// rendezvous area holds only the published pointers and the barrier.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "parallel/comm.hpp"

namespace pwdft::par {

namespace detail {
struct SharedState;
}  // namespace detail

class ThreadComm final : public Comm {
 public:
  ThreadComm(std::shared_ptr<detail::SharedState> shared, int rank);
  ~ThreadComm() override;

  int rank() const override { return rank_; }
  int size() const override;

  void barrier() override;
  void bcast_bytes(void* data, std::size_t bytes, int root) override;
  void allreduce_sum(double* data, std::size_t count) override;
  void allreduce_sum(Complex* data, std::size_t count) override;
  void alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                       const std::size_t* send_displs, unsigned char* recv,
                       const std::size_t* recv_counts, const std::size_t* recv_displs) override;
  /// Collective: all ranks must call dup() at the same point. The duplicate
  /// shares the rank set but owns a fresh rendezvous area, so its
  /// collectives never interleave with the parent's.
  std::unique_ptr<Comm> dup() override;

 private:
  template <typename T>
  void allreduce_sum_impl(T* data, std::size_t count);

  std::shared_ptr<detail::SharedState> shared_;
  int rank_;
};

/// Launches an SPMD region across `nranks` thread-backed ranks and joins.
/// The first exception thrown by any rank is rethrown after all join.
/// Returns the per-rank communication statistics.
class ThreadGroup {
 public:
  using RankFn = std::function<void(Comm&)>;
  static std::vector<CommStats> run(int nranks, const RankFn& fn);
};

}  // namespace pwdft::par
