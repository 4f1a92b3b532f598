#include "parallel/comm.hpp"

#include "common/check.hpp"

namespace pwdft::par {

const char* comm_op_name(CommOp op) {
  switch (op) {
    case CommOp::kBcast:
      return "Bcast";
    case CommOp::kAllreduce:
      return "Allreduce";
    case CommOp::kAlltoallv:
      return "Alltoallv";
    case CommOp::kBarrier:
      return "Barrier";
    default:
      return "?";
  }
}

void SerialComm::barrier() { stats_.add(CommOp::kBarrier, 0, 0.0); }

void SerialComm::bcast_bytes(void* /*data*/, std::size_t /*bytes*/, int root) {
  PWDFT_CHECK(root == 0, "SerialComm: root out of range");
  stats_.add(CommOp::kBcast, 0, 0.0);  // nothing received on a 1-rank comm
}

void SerialComm::allreduce_sum(double* /*data*/, std::size_t /*count*/) {
  stats_.add(CommOp::kAllreduce, 0, 0.0);
}

void SerialComm::allreduce_sum(Complex* /*data*/, std::size_t /*count*/) {
  stats_.add(CommOp::kAllreduce, 0, 0.0);
}

void SerialComm::alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                                 const std::size_t* send_displs, unsigned char* recv,
                                 const std::size_t* recv_counts,
                                 const std::size_t* recv_displs) {
  PWDFT_CHECK(send_counts[0] == recv_counts[0], "SerialComm alltoallv: count mismatch");
  std::memcpy(recv + recv_displs[0], send + send_displs[0], send_counts[0]);
  stats_.add(CommOp::kAlltoallv, 0, 0.0);
}

std::unique_ptr<Comm> SerialComm::dup() { return std::make_unique<SerialComm>(); }

}  // namespace pwdft::par
