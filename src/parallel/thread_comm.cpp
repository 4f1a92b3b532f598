#include "parallel/thread_comm.hpp"

#include <barrier>
#include <cstring>
#include <exception>
#include <thread>

#include "common/check.hpp"
#include "common/timer.hpp"

namespace pwdft::par {

namespace detail {

struct SharedState {
  explicit SharedState(int n) : nranks(n), sync(n), ptrs(n), aux(n) {}

  int nranks;
  std::barrier<> sync;
  /// Per-rank published buffer pointer for the current collective.
  std::vector<const void*> ptrs;
  /// Per-rank published auxiliary pointer (counts/displs for alltoallv).
  std::vector<std::array<const std::size_t*, 2>> aux;
};

}  // namespace detail

using detail::SharedState;

ThreadComm::ThreadComm(std::shared_ptr<SharedState> shared, int rank)
    : shared_(std::move(shared)), rank_(rank) {}

ThreadComm::~ThreadComm() = default;

int ThreadComm::size() const { return shared_->nranks; }

void ThreadComm::barrier() {
  WallTimer t;
  shared_->sync.arrive_and_wait();
  stats_.add(CommOp::kBarrier, 0, t.seconds());
}

void ThreadComm::bcast_bytes(void* data, std::size_t bytes, int root) {
  PWDFT_CHECK(root >= 0 && root < size(), "bcast: root out of range");
  WallTimer t;
  shared_->ptrs[rank_] = data;
  shared_->sync.arrive_and_wait();
  if (rank_ != root) std::memcpy(data, shared_->ptrs[root], bytes);
  shared_->sync.arrive_and_wait();
  stats_.add(CommOp::kBcast, rank_ == root ? 0 : bytes, t.seconds());
}

template <typename T>
void ThreadComm::allreduce_sum_impl(T* data, std::size_t count) {
  WallTimer t;
  shared_->ptrs[rank_] = data;
  shared_->sync.arrive_and_wait();
  std::vector<T> acc(count, T{});
  for (int r = 0; r < size(); ++r) {
    const T* src = static_cast<const T*>(shared_->ptrs[r]);
    for (std::size_t i = 0; i < count; ++i) acc[i] += src[i];
  }
  shared_->sync.arrive_and_wait();  // all ranks finished reading
  std::memcpy(data, acc.data(), count * sizeof(T));
  stats_.add(CommOp::kAllreduce, count * sizeof(T), t.seconds());
}

void ThreadComm::allreduce_sum(double* data, std::size_t count) {
  allreduce_sum_impl(data, count);
}

void ThreadComm::allreduce_sum(Complex* data, std::size_t count) {
  allreduce_sum_impl(data, count);
}

void ThreadComm::alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                                 const std::size_t* send_displs, unsigned char* recv,
                                 const std::size_t* recv_counts,
                                 const std::size_t* recv_displs) {
  WallTimer t;
  shared_->ptrs[rank_] = send;
  shared_->aux[rank_] = {send_counts, send_displs};
  shared_->sync.arrive_and_wait();
  std::size_t received = 0;
  for (int r = 0; r < size(); ++r) {
    const auto* src = static_cast<const unsigned char*>(shared_->ptrs[r]);
    const std::size_t* sc = shared_->aux[r][0];
    const std::size_t* sd = shared_->aux[r][1];
    PWDFT_CHECK(sc[rank_] == recv_counts[r],
                "alltoallv: rank " << r << " sends " << sc[rank_] << " bytes, expected "
                                   << recv_counts[r]);
    std::memcpy(recv + recv_displs[r], src + sd[rank_], sc[rank_]);
    if (r != rank_) received += sc[rank_];
  }
  shared_->sync.arrive_and_wait();
  stats_.add(CommOp::kAlltoallv, received, t.seconds());
}

std::unique_ptr<Comm> ThreadComm::dup() {
  // Rank 0 allocates the new rendezvous area and publishes the shared_ptr's
  // address through the parent's publish/barrier protocol; everyone copies
  // it (ref-count keeps it alive for all ranks).
  std::shared_ptr<SharedState> next;
  if (rank_ == 0) next = std::make_shared<SharedState>(shared_->nranks);
  shared_->ptrs[rank_] = &next;
  shared_->sync.arrive_and_wait();
  if (rank_ != 0)
    next = *static_cast<const std::shared_ptr<SharedState>*>(shared_->ptrs[0]);
  shared_->sync.arrive_and_wait();
  return std::make_unique<ThreadComm>(std::move(next), rank_);
}

std::vector<CommStats> ThreadGroup::run(int nranks, const RankFn& fn) {
  PWDFT_CHECK(nranks >= 1, "ThreadGroup: need at least one rank");
  auto shared = std::make_shared<SharedState>(nranks);
  std::vector<CommStats> stats(nranks);
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(nranks);

  threads.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      ThreadComm comm(shared, r);
      try {
        fn(comm);
      } catch (...) {
        errors[r] = std::current_exception();
      }
      stats[r] = comm.stats();
    });
  }
  for (auto& th : threads) th.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
  return stats;
}

}  // namespace pwdft::par
