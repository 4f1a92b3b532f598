#include "parallel/hier_comm.hpp"

#include "common/check.hpp"
#include "common/exec.hpp"
#include "common/timer.hpp"

namespace pwdft::par {

HierComm::HierComm(Comm& world, int band_groups) : world_(&world), nbg_(band_groups) {
  PWDFT_CHECK(band_groups >= 1, "HierComm: need at least one band group");
  PWDFT_CHECK(world.size() % band_groups == 0,
              "HierComm: " << band_groups << " band groups do not divide " << world.size()
                           << " ranks");
  npg_ = world.size() / nbg_;
  const int r = world.rank();
  // Row-major 2D layout: consecutive world ranks share a band group, so the
  // grid communicator (the transpose rendezvous) is a contiguous rank block.
  grid_ = world.split(/*color=*/r / npg_, /*key=*/r % npg_);
  band_ = world.split(/*color=*/r % npg_, /*key=*/r / npg_);
  PWDFT_CHECK(grid_->size() == npg_ && band_->size() == nbg_,
              "HierComm: split produced an inconsistent layout");
}

namespace {

template <typename T>
std::span<T> hier_buf(exec::Slot slot, std::size_t n) {
  if constexpr (std::is_same_v<T, Complex>)
    return exec::workspace().cbuf(slot, n);
  else
    return exec::workspace().rbuf(slot, n);
}

}  // namespace

template <typename T>
void HierComm::staged_allreduce(T* data, std::size_t count) {
  // Two allgather hops move every rank's partial vector to every rank in
  // world-rank order (world rank = group * npg + grid rank, and both hops
  // keep their blocks rank-ordered), then each rank folds all P partials
  // locally starting from zero — the identical summation order, and thus
  // identical bits, as the flat thread-backed allreduce. The transport
  // volume is P * count, which is exactly what the flat rendezvous
  // implementation reads per rank as well; an MPI backend would trade this
  // for a grid-level reduce + band-level allreduce once callers opt out of
  // the bitwise contract.
  WallTimer t;
  const int np = size();
  const std::size_t bytes = count * sizeof(T);
  auto group = hier_buf<T>(exec::Slot::hier_group, static_cast<std::size_t>(npg_) * count);
  auto all = hier_buf<T>(exec::Slot::hier_world, static_cast<std::size_t>(np) * count);

  std::vector<std::size_t> counts(static_cast<std::size_t>(std::max(npg_, nbg_)));
  std::vector<std::size_t> displs(counts.size());
  for (int r = 0; r < npg_; ++r) {
    counts[r] = bytes;
    displs[r] = static_cast<std::size_t>(r) * bytes;
  }
  grid_->allgatherv_bytes(reinterpret_cast<const unsigned char*>(data), bytes,
                          reinterpret_cast<unsigned char*>(group.data()), counts.data(),
                          displs.data());
  const std::size_t gbytes = static_cast<std::size_t>(npg_) * bytes;
  for (int g = 0; g < nbg_; ++g) {
    counts[g] = gbytes;
    displs[g] = static_cast<std::size_t>(g) * gbytes;
  }
  band_->allgatherv_bytes(reinterpret_cast<const unsigned char*>(group.data()), gbytes,
                          reinterpret_cast<unsigned char*>(all.data()), counts.data(),
                          displs.data());

  // Ordered fold; elements are disjoint across tasks, every element adds
  // ranks 0..P-1 in order, so the result is width-independent.
  const T* all_p = all.data();
  exec::parallel_for(
      count,
      [=](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) {
          T acc{};
          for (int r = 0; r < np; ++r) acc += all_p[static_cast<std::size_t>(r) * count + i];
          data[i] = acc;
        }
      },
      4096);
  stats_.add(CommOp::kAllreduce, bytes, t.seconds());
}

void HierComm::allreduce_sum(double* data, std::size_t count) { staged_allreduce(data, count); }

void HierComm::allreduce_sum(Complex* data, std::size_t count) { staged_allreduce(data, count); }

void HierComm::merge_substats() {
  stats_.merge(grid_->stats());
  stats_.merge(band_->stats());
  grid_->stats().reset();
  band_->stats().reset();
}

}  // namespace pwdft::par
