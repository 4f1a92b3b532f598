#include "parallel/socket_comm.hpp"

#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/env.hpp"
#include "common/exec.hpp"
#include "common/frame.hpp"
#include "common/timer.hpp"

namespace pwdft::par {

namespace {

/// Frame dialect (common/frame.hpp): own magic so a SocketComm rank and a
/// serve endpoint accidentally cross-wired reject each other's bytes as
/// kBadMagic instead of misreading them. The version changes whenever what a
/// message carries changes (2: dup() shares its listeners by JOIN/TABLE).
enum class CommMsg : std::uint32_t {
  kJoin = 1,        ///< rank -> rank 0: u32 rank, u32 nranks, str listener
  kTable = 2,       ///< rank 0 -> rank: u32 nranks, nranks x str listeners
  kIdent = 3,       ///< mesh dial: u32 new rank of the dialing peer
  kCollective = 4,  ///< u64 seq, u32 op, u32 src rank, raw data
};

constexpr frame::Protocol kProto{"PWDFTCM", 2, static_cast<std::uint32_t>(CommMsg::kJoin),
                                 static_cast<std::uint32_t>(CommMsg::kCollective), 1ull << 30};

constexpr std::size_t kCoHeader = 16;  ///< seq + op + src prefix of kCollective

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_from(int timeout_ms) {
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now()).count();
  return left > 0 ? static_cast<int>(std::min<long long>(left, 3600000)) : 0;
}

CommFault fault_of(frame::IoStatus s) {
  switch (s) {
    case frame::IoStatus::kOk: return CommFault::kIo;  // not a failure; unreachable
    case frame::IoStatus::kClosed: return CommFault::kPeerClosed;
    case frame::IoStatus::kTruncated: return CommFault::kTruncated;
    case frame::IoStatus::kBadMagic: return CommFault::kProtocol;
    case frame::IoStatus::kBadType: return CommFault::kProtocol;
    case frame::IoStatus::kVersionMismatch: return CommFault::kProtocol;
    case frame::IoStatus::kTooLarge: return CommFault::kProtocol;
    case frame::IoStatus::kTrailingBytes: return CommFault::kProtocol;
    case frame::IoStatus::kChecksumMismatch: return CommFault::kCorrupt;
    case frame::IoStatus::kTimeout: return CommFault::kTimeout;
    case frame::IoStatus::kIoError: return CommFault::kIo;
  }
  return CommFault::kIo;
}

[[noreturn]] void throw_fault(CommFault f, const std::string& what) {
  throw CommError(f, "SocketComm: " + what + " [" + comm_fault_name(f) + "]");
}

[[noreturn]] void throw_io(frame::IoStatus s, const std::string& what) {
  throw_fault(fault_of(s), what + ": " + frame::io_status_name(s));
}

void set_sock_opts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);  // no-op on unix sockets
}

/// Where this communicator (and its dup() offspring) place their
/// mesh listeners: same transport as the rendezvous address.
std::string mesh_hint_from(const std::string& rendezvous) {
  if (rendezvous.rfind("unix:", 0) == 0) {
    const std::string path = rendezvous.substr(5);
    const std::size_t slash = path.rfind('/');
    return "unix:" + (slash == std::string::npos ? std::string(".") : path.substr(0, slash));
  }
  if (rendezvous.rfind("tcp:", 0) == 0) {
    const std::string rest = rendezvous.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon != std::string::npos && colon > 0) return "tcp:" + rest.substr(0, colon);
  }
  return "tcp:127.0.0.1";
}

frame::Listener open_mesh_listener(const std::string& hint) {
  static std::atomic<std::uint64_t> counter{0};
  if (hint.rfind("unix:", 0) == 0) {
    const std::string path = hint.substr(5) + "/m" + std::to_string(::getpid()) + "." +
                             std::to_string(counter.fetch_add(1));
    return frame::listen_on("unix:" + path);
  }
  return frame::listen_on(hint + ":0");
}

/// Closes the listener on every exit path (a failed handshake must not
/// leak the fd or the bound unix socket file). Listener::close is
/// idempotent, so the explicit early close in the happy path still works.
struct ListenerGuard {
  frame::Listener& l;
  ~ListenerGuard() { l.close(); }
};

int accept_deadline(int listen_fd, Clock::time_point deadline, const char* what) {
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int left = remaining_ms(deadline);
    if (left <= 0) throw_fault(CommFault::kTimeout, std::string(what) + ": accept timed out");
    const int pr = ::poll(&pfd, 1, left);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_fault(CommFault::kIo, std::string(what) + ": poll: " + std::strerror(errno));
    }
    if (pr == 0) throw_fault(CommFault::kTimeout, std::string(what) + ": accept timed out");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw_fault(CommFault::kIo, std::string(what) + ": accept: " + std::strerror(errno));
  }
}

int dial_deadline(const std::string& address, Clock::time_point deadline, const char* what) {
  std::string why;
  for (;;) {
    const int fd = frame::try_dial(address, &why);
    if (fd >= 0) return fd;
    if (remaining_ms(deadline) <= 0)
      throw_fault(CommFault::kConnect,
                  std::string(what) + ": connect(" + address + ") failed: " + why);
    // The listener may simply not exist yet (peers race through the
    // rendezvous); retry until the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void send_handshake(int fd, CommMsg type, const std::vector<std::uint8_t>& payload,
                    const char* what) {
  const frame::IoStatus st = frame::send_frame(fd, kProto, static_cast<std::uint32_t>(type),
                                               payload.data(), payload.size());
  if (st != frame::IoStatus::kOk) throw_io(st, std::string(what) + ": send handshake");
}

std::vector<std::uint8_t> recv_handshake(int fd, CommMsg want, const char* what) {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> payload;
  const frame::IoStatus st = frame::recv_frame(fd, kProto, &type, &payload);
  if (st != frame::IoStatus::kOk) throw_io(st, std::string(what) + ": recv handshake");
  if (type != static_cast<std::uint32_t>(want))
    throw_fault(CommFault::kProtocol, std::string(what) + ": unexpected handshake frame type " +
                                          std::to_string(type));
  return payload;
}

/// A handshake payload must parse whole: an overrun or trailing bytes is a
/// malformed handshake, i.e. kProtocol.
void expect_whole(const frame::GetBuf& in, const char* what) {
  if (!in.exhausted())
    throw_fault(CommFault::kProtocol, std::string(what) + ": malformed handshake payload");
}

/// The JOIN/TABLE handshake of connect() and dup(): returns every rank's
/// listener address in rank order. `links` holds one connected fd per peer
/// on rank 0 (own slot -1) and the link to rank 0 in slot 0 on every other
/// rank. Rank r >= 1 sends JOIN{r, P, mine} and reads back the TABLE. Rank 0
/// reads one JOIN per link, refiles the link under the rank the JOIN names
/// (rendezvous accepts arrive in any order), and sends each peer the TABLE.
std::vector<std::string> exchange_table(int rank, std::vector<int>& links,
                                        const std::string& mine, const char* what) {
  const std::uint32_t nranks = static_cast<std::uint32_t>(links.size());
  std::vector<std::string> addrs(nranks);
  if (rank == 0) {
    std::vector<int> filed(nranks, -1);
    addrs[0] = mine;
    for (std::uint32_t s = 1; s < nranks; ++s) {
      const std::vector<std::uint8_t> pay = recv_handshake(links[s], CommMsg::kJoin, what);
      frame::GetBuf in(pay);
      const std::uint32_t r = in.u32();
      const std::uint32_t n = in.u32();
      std::string addr = in.str();
      expect_whole(in, what);
      if (n != nranks)
        throw_fault(CommFault::kProtocol, std::string(what) + ": peer expects " +
                                              std::to_string(n) + " ranks, this rank expects " +
                                              std::to_string(nranks));
      if (r < 1 || r >= nranks || filed[r] != -1)
        throw_fault(CommFault::kProtocol, std::string(what) + ": duplicate or bad rank " +
                                              std::to_string(r) + " joined");
      filed[r] = links[s];
      addrs[r] = std::move(addr);
    }
    links = std::move(filed);
    frame::PutBuf table;
    table.u32(nranks);
    for (const std::string& a : addrs) table.str(a);
    for (std::uint32_t r = 1; r < nranks; ++r)
      send_handshake(links[r], CommMsg::kTable, table.bytes(), what);
  } else {
    frame::PutBuf join;
    join.u32(static_cast<std::uint32_t>(rank));
    join.u32(nranks);
    join.str(mine);
    send_handshake(links[0], CommMsg::kJoin, join.bytes(), what);
    const std::vector<std::uint8_t> pay = recv_handshake(links[0], CommMsg::kTable, what);
    frame::GetBuf in(pay);
    if (in.u32() != nranks)
      throw_fault(CommFault::kProtocol, std::string(what) + ": table size mismatch");
    for (std::string& a : addrs) a = in.str();
    expect_whole(in, what);
  }
  return addrs;
}

/// Dial-lower / accept-higher mesh construction among `addrs` (indexed by
/// rank; own slot ignored). `fds` enters holding the lower-rank peers that
/// are already connected — the join edge to rank 0 during connect(), none
/// for dup() — which are not dialled again, and leaves as the full table,
/// -1 at my_rank. Dials complete against the peer's listen backlog even
/// before it reaches accept(), so the order is deadlock-free.
std::vector<int> build_mesh(int my_rank, const std::vector<std::string>& addrs, int listen_fd,
                            std::vector<int> fds, int timeout_ms, Clock::time_point deadline) {
  const int nmem = static_cast<int>(addrs.size());
  for (int b = 0; b < my_rank; ++b) {
    if (fds[b] != -1) continue;
    fds[b] = dial_deadline(addrs[b], deadline, "mesh");
    set_sock_opts(fds[b], timeout_ms);
    frame::PutBuf ident;
    ident.u32(static_cast<std::uint32_t>(my_rank));
    send_handshake(fds[b], CommMsg::kIdent, ident.bytes(), "mesh");
  }
  for (int count = my_rank + 1; count < nmem; ++count) {
    const int fd = accept_deadline(listen_fd, deadline, "mesh");
    set_sock_opts(fd, timeout_ms);
    const std::vector<std::uint8_t> pay = recv_handshake(fd, CommMsg::kIdent, "mesh");
    frame::GetBuf in(pay);
    const std::uint32_t r = in.u32();
    expect_whole(in, "mesh");
    if (r <= static_cast<std::uint32_t>(my_rank) || r >= static_cast<std::uint32_t>(nmem) ||
        fds[r] != -1)
      throw_fault(CommFault::kProtocol, "mesh: duplicate or bad peer rank " + std::to_string(r));
    fds[r] = fd;
  }
  return fds;
}

}  // namespace

const char* comm_fault_name(CommFault f) {
  switch (f) {
    case CommFault::kTimeout: return "timeout";
    case CommFault::kPeerClosed: return "peer closed";
    case CommFault::kTruncated: return "truncated";
    case CommFault::kCorrupt: return "corrupt frame";
    case CommFault::kProtocol: return "protocol violation";
    case CommFault::kConnect: return "connect failed";
    case CommFault::kIo: return "io error";
  }
  return "unknown";
}

SocketCommOptions SocketCommOptions::from_env() {
  SocketCommOptions o;
  o.timeout_ms = static_cast<int>(env::integer("PWDFT_COMM_TIMEOUT_MS", 30000, 1, 3600000));
  return o;
}

SocketComm::SocketComm(int rank, std::vector<int> fds, SocketCommOptions opts,
                       std::string mesh_hint)
    : rank_(rank), fds_(std::move(fds)), opts_(opts), mesh_hint_(std::move(mesh_hint)) {}

SocketComm::~SocketComm() {
  for (int fd : fds_)
    if (fd >= 0) ::close(fd);
}

std::unique_ptr<SocketComm> SocketComm::connect(int rank, int nranks,
                                                const std::string& rendezvous,
                                                const SocketCommOptions& opts) {
  PWDFT_CHECK(nranks >= 1, "SocketComm: need at least one rank");
  PWDFT_CHECK(rank >= 0 && rank < nranks,
              "SocketComm: rank " << rank << " outside [0, " << nranks << ")");
  const std::string hint = mesh_hint_from(rendezvous);
  if (nranks == 1)
    return std::unique_ptr<SocketComm>(
        new SocketComm(0, std::vector<int>{-1}, opts, hint));

  const auto deadline = deadline_from(opts.timeout_ms);
  std::vector<int> fds(nranks, -1);

  if (rank == 0) {
    frame::Listener rv = frame::listen_on(rendezvous);
    ListenerGuard rv_guard{rv};
    for (int joined = 1; joined < nranks; ++joined) {
      fds[joined] = accept_deadline(rv.fd, deadline, "rendezvous");
      set_sock_opts(fds[joined], opts.timeout_ms);
    }
    rv.close();
    // Rank 0 announces no mesh listener: its mesh edges are the join links.
    exchange_table(0, fds, "", "rendezvous");
  } else {
    // The peer mesh among ranks >= 1: rank j accepts from ranks > j and
    // dials ranks in [1, j); the (0, j) edges are the join connections.
    frame::Listener mesh = open_mesh_listener(hint);
    ListenerGuard mesh_guard{mesh};
    fds[0] = dial_deadline(rendezvous, deadline, "rendezvous");
    set_sock_opts(fds[0], opts.timeout_ms);
    const std::vector<std::string> addrs = exchange_table(rank, fds, mesh.address, "rendezvous");
    fds = build_mesh(rank, addrs, mesh.fd, std::move(fds), opts.timeout_ms, deadline);
    mesh.close();
  }
  return std::unique_ptr<SocketComm>(new SocketComm(rank, std::move(fds), opts, hint));
}

// --- collective frame plumbing ---------------------------------------------

void SocketComm::send_collective(int dst, CommOp op, const unsigned char* data, std::size_t n) {
  std::vector<std::uint8_t> pay(kCoHeader + n);
  frame::pack_u64(seq_, pay.data());
  frame::pack_u32(static_cast<std::uint32_t>(op), pay.data() + 8);
  frame::pack_u32(static_cast<std::uint32_t>(rank_), pay.data() + 12);
  if (n > 0) std::memcpy(pay.data() + kCoHeader, data, n);
  std::vector<std::uint8_t> f =
      frame::encode(kProto, static_cast<std::uint32_t>(CommMsg::kCollective), pay.data(),
                    pay.size());
  if (inject_ == Inject::kFlipPayloadByte) {
    // Damage after encoding: the frame parses but its checksum no longer
    // matches, which the peer must report as kCorrupt.
    f[frame::kHeaderBytes] ^= 0x01;
    inject_ = Inject::kNone;
  } else if (inject_ == Inject::kTruncateFrame) {
    inject_ = Inject::kNone;
    const frame::IoStatus st = frame::write_all(fds_[dst], f.data(), f.size() / 2);
    ::shutdown(fds_[dst], SHUT_WR);  // peer sees EOF mid-frame: kTruncated
    if (st != frame::IoStatus::kOk)
      throw_io(st, "send to rank " + std::to_string(dst) + " (injected truncation)");
    return;
  }
  const frame::IoStatus st = frame::write_all(fds_[dst], f.data(), f.size());
  if (st != frame::IoStatus::kOk)
    throw_io(st, std::string(comm_op_name(op)) + ": send to rank " + std::to_string(dst));
}

std::vector<std::uint8_t> SocketComm::recv_collective(int src, CommOp op, std::size_t expect) {
  std::uint32_t type = 0;
  std::vector<std::uint8_t> pay;
  const frame::IoStatus st = frame::recv_frame(fds_[src], kProto, &type, &pay);
  const std::string ctx =
      std::string(comm_op_name(op)) + ": recv from rank " + std::to_string(src);
  if (st != frame::IoStatus::kOk) throw_io(st, ctx);
  if (type != static_cast<std::uint32_t>(CommMsg::kCollective) || pay.size() < kCoHeader)
    throw_fault(CommFault::kProtocol, ctx + ": not a collective frame");
  const std::uint64_t seq = frame::unpack_u64(pay.data());
  const std::uint32_t fop = frame::unpack_u32(pay.data() + 8);
  const std::uint32_t fsrc = frame::unpack_u32(pay.data() + 12);
  if (seq != seq_ || fop != static_cast<std::uint32_t>(op) ||
      fsrc != static_cast<std::uint32_t>(src))
    throw_fault(CommFault::kProtocol,
                ctx + ": frame from collective #" + std::to_string(seq) + " op " +
                    std::to_string(fop) + ", expected #" + std::to_string(seq_) +
                    " (ranks out of step?)");
  if (pay.size() - kCoHeader != expect)
    throw_fault(CommFault::kProtocol, ctx + ": rank " + std::to_string(src) + " sent " +
                                          std::to_string(pay.size() - kCoHeader) +
                                          " bytes, expected " + std::to_string(expect));
  return pay;
}

void SocketComm::duplex_exchange(int dst, const std::uint8_t* out, std::size_t out_n, int src,
                                 std::uint8_t* in, std::size_t in_n) {
  const int out_fd = fds_[dst];
  const int in_fd = fds_[src];
  const auto deadline = deadline_from(opts_.timeout_ms);
  std::size_t wr = 0, rd = 0;
  while (wr < out_n || rd < in_n) {
    pollfd pfd[2];
    int nf = 0, wi = -1, ri = -1;
    if (wr < out_n) {
      pfd[nf] = {out_fd, POLLOUT, 0};
      wi = nf++;
    }
    if (rd < in_n) {
      if (wi >= 0 && in_fd == out_fd) {
        pfd[wi].events |= POLLIN;
        ri = wi;
      } else {
        pfd[nf] = {in_fd, POLLIN, 0};
        ri = nf++;
      }
    }
    const int left = remaining_ms(deadline);
    if (left <= 0) throw_fault(CommFault::kTimeout, "alltoallv: exchange timed out");
    const int pr = ::poll(pfd, static_cast<nfds_t>(nf), left);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_fault(CommFault::kIo, std::string("alltoallv: poll: ") + std::strerror(errno));
    }
    if (pr == 0) throw_fault(CommFault::kTimeout, "alltoallv: exchange timed out");
    if (wi >= 0 && (pfd[wi].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
      const ssize_t w = ::send(out_fd, out + wr, out_n - wr, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w < 0) {
        if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
          if (errno == EPIPE || errno == ECONNRESET)
            throw_fault(CommFault::kPeerClosed,
                        "alltoallv: rank " + std::to_string(dst) + " went away mid-exchange");
          throw_fault(CommFault::kIo, std::string("alltoallv: send: ") + std::strerror(errno));
        }
      } else {
        wr += static_cast<std::size_t>(w);
      }
    }
    if (ri >= 0 && (pfd[ri].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      const ssize_t r = ::recv(in_fd, in + rd, in_n - rd, MSG_DONTWAIT);
      if (r < 0) {
        if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
          throw_fault(CommFault::kIo, std::string("alltoallv: recv: ") + std::strerror(errno));
      } else if (r == 0) {
        throw_fault(rd == 0 ? CommFault::kPeerClosed : CommFault::kTruncated,
                    "alltoallv: rank " + std::to_string(src) + " closed mid-exchange");
      } else {
        rd += static_cast<std::size_t>(r);
      }
    }
  }
}

// --- collectives -----------------------------------------------------------

void SocketComm::barrier() {
  WallTimer t;
  ++seq_;
  const int np = size();
  if (np > 1) {
    // Hub rendezvous on rank 0: arrivals in rank order, then releases. A
    // rank can only pass once every rank has arrived — the barrier
    // property — and every blocking read is timeout-bounded.
    if (rank_ == 0) {
      for (int r = 1; r < np; ++r) recv_collective(r, CommOp::kBarrier, 0);
      for (int r = 1; r < np; ++r) send_collective(r, CommOp::kBarrier, nullptr, 0);
    } else {
      send_collective(0, CommOp::kBarrier, nullptr, 0);
      recv_collective(0, CommOp::kBarrier, 0);
    }
  }
  stats_.add(CommOp::kBarrier, 0, t.seconds());
}

void SocketComm::bcast_bytes(void* data, std::size_t bytes, int root) {
  PWDFT_CHECK(root >= 0 && root < size(), "bcast: root out of range");
  WallTimer t;
  ++seq_;
  if (size() > 1) {
    if (rank_ == root) {
      for (int r = 0; r < size(); ++r)
        if (r != root)
          send_collective(r, CommOp::kBcast, static_cast<const unsigned char*>(data), bytes);
    } else {
      const std::vector<std::uint8_t> pay = recv_collective(root, CommOp::kBcast, bytes);
      std::memcpy(data, pay.data() + kCoHeader, bytes);
    }
  }
  stats_.add(CommOp::kBcast, rank_ == root ? 0 : bytes, t.seconds());
}

template <typename T>
void SocketComm::allreduce_sum_impl(T* data, std::size_t count) {
  WallTimer t;
  ++seq_;
  const int np = size();
  const std::size_t bytes = count * sizeof(T);
  if (np > 1) {
    if (rank_ == 0) {
      // Zero-initialized accumulator folded in rank order 0..P-1: the
      // identical summation order — and therefore identical bits — as
      // ThreadComm::allreduce_sum_impl. Do not reassociate.
      std::vector<T> acc(count, T{});
      for (std::size_t i = 0; i < count; ++i) acc[i] += data[i];
      for (int r = 1; r < np; ++r) {
        const std::vector<std::uint8_t> pay = recv_collective(r, CommOp::kAllreduce, bytes);
        const T* src = reinterpret_cast<const T*>(pay.data() + kCoHeader);
        for (std::size_t i = 0; i < count; ++i) acc[i] += src[i];
      }
      std::memcpy(data, acc.data(), bytes);
      for (int r = 1; r < np; ++r)
        send_collective(r, CommOp::kAllreduce, reinterpret_cast<const unsigned char*>(data),
                        bytes);
    } else {
      send_collective(0, CommOp::kAllreduce, reinterpret_cast<const unsigned char*>(data),
                      bytes);
      const std::vector<std::uint8_t> pay = recv_collective(0, CommOp::kAllreduce, bytes);
      std::memcpy(data, pay.data() + kCoHeader, bytes);
    }
  }
  stats_.add(CommOp::kAllreduce, bytes, t.seconds());
}

void SocketComm::allreduce_sum(double* data, std::size_t count) {
  allreduce_sum_impl(data, count);
}

void SocketComm::allreduce_sum(Complex* data, std::size_t count) {
  allreduce_sum_impl(data, count);
}

void SocketComm::alltoallv_bytes(const unsigned char* send, const std::size_t* send_counts,
                                 const std::size_t* send_displs, unsigned char* recv,
                                 const std::size_t* recv_counts,
                                 const std::size_t* recv_displs) {
  WallTimer t;
  ++seq_;
  const int np = size();
  PWDFT_CHECK(send_counts[rank_] == recv_counts[rank_],
              "alltoallv: rank " << rank_ << " sends " << send_counts[rank_]
                                 << " bytes to itself, expected " << recv_counts[rank_]);
  std::memcpy(recv + recv_displs[rank_], send + send_displs[rank_], send_counts[rank_]);
  std::size_t received = 0;
  // Ring schedule: round k pairs every rank with distinct peers (send to
  // rank+k, receive from rank-k), and the exchange itself is poll-driven
  // full duplex — neither side can block the other into a send/send
  // deadlock on large payloads.
  for (int k = 1; k < np; ++k) {
    const int dst = (rank_ + k) % np;
    const int src = (rank_ + np - k) % np;
    std::vector<std::uint8_t> pay(kCoHeader + send_counts[dst]);
    frame::pack_u64(seq_, pay.data());
    frame::pack_u32(static_cast<std::uint32_t>(CommOp::kAlltoallv), pay.data() + 8);
    frame::pack_u32(static_cast<std::uint32_t>(rank_), pay.data() + 12);
    if (send_counts[dst] > 0)
      std::memcpy(pay.data() + kCoHeader, send + send_displs[dst], send_counts[dst]);
    const std::vector<std::uint8_t> out =
        frame::encode(kProto, static_cast<std::uint32_t>(CommMsg::kCollective), pay.data(),
                      pay.size());
    const std::size_t in_n =
        frame::kHeaderBytes + kCoHeader + recv_counts[src] + frame::kFooterBytes;
    std::vector<std::uint8_t> in(in_n);
    duplex_exchange(dst, out.data(), out.size(), src, in.data(), in_n);

    std::uint32_t type = 0;
    std::vector<std::uint8_t> got;
    const frame::IoStatus st = frame::decode(kProto, in.data(), in.size(), &type, &got);
    const std::string ctx = "alltoallv: frame from rank " + std::to_string(src);
    if (st != frame::IoStatus::kOk) throw_io(st, ctx);
    if (type != static_cast<std::uint32_t>(CommMsg::kCollective) || got.size() < kCoHeader)
      throw_fault(CommFault::kProtocol, ctx + ": not a collective frame");
    if (frame::unpack_u64(got.data()) != seq_ ||
        frame::unpack_u32(got.data() + 8) != static_cast<std::uint32_t>(CommOp::kAlltoallv) ||
        frame::unpack_u32(got.data() + 12) != static_cast<std::uint32_t>(src))
      throw_fault(CommFault::kProtocol, ctx + ": ranks out of step");
    std::memcpy(recv + recv_displs[src], got.data() + kCoHeader, recv_counts[src]);
    received += recv_counts[src];
  }
  stats_.add(CommOp::kAlltoallv, received, t.seconds());
}

// --- dup -------------------------------------------------------------------

std::unique_ptr<Comm> SocketComm::dup() {
  if (size() == 1)
    return std::unique_ptr<SocketComm>(
        new SocketComm(0, std::vector<int>{-1}, opts_, mesh_hint_));
  frame::Listener mesh = open_mesh_listener(mesh_hint_);
  ListenerGuard mesh_guard{mesh};
  // Publish every rank's fresh listener over the parent's links to rank 0,
  // then rebuild the full mesh on new sockets — an independent rendezvous
  // domain.
  std::vector<int> links = fds_;
  const std::vector<std::string> addrs = exchange_table(rank_, links, mesh.address, "dup");
  std::vector<int> fds = build_mesh(rank_, addrs, mesh.fd, std::vector<int>(size(), -1),
                                    opts_.timeout_ms, deadline_from(opts_.timeout_ms));
  mesh.close();
  return std::unique_ptr<SocketComm>(new SocketComm(rank_, std::move(fds), opts_, mesh_hint_));
}

// --- SocketGroup -----------------------------------------------------------

namespace {

void remove_tree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

}  // namespace

std::vector<SocketGroup::RankExit> SocketGroup::run_collect(int nranks, const RankFn& fn,
                                                            int timeout_sec) {
  PWDFT_CHECK(nranks >= 1, "SocketGroup: need at least one rank");
  char tmpl[] = "/tmp/pwdft_sg_XXXXXX";
  PWDFT_CHECK(::mkdtemp(tmpl) != nullptr,
              "SocketGroup: mkdtemp failed: " << std::strerror(errno));
  const std::string dir = tmpl;
  const std::string rendezvous = "unix:" + dir + "/rv";

  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids(nranks, -1);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    PWDFT_CHECK(pid >= 0, "SocketGroup: fork failed: " << std::strerror(errno));
    if (pid == 0) {
      // Child: the inherited thread pool has no workers here; drop it
      // before anything can touch parallel_for.
      exec::reinit_after_fork();
      int code = 0;
      try {
        const auto comm = SocketComm::connect(r, nranks, rendezvous,
                                              SocketCommOptions::from_env());
        fn(*comm);
      } catch (const CommError& e) {
        std::fprintf(stderr, "[SocketGroup rank %d] %s\n", r, e.what());
        code = 4;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[SocketGroup rank %d] %s\n", r, e.what());
        code = 3;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      ::_exit(code);  // skip parent atexit handlers / static destructors
    }
    pids[r] = pid;
  }

  std::vector<RankExit> exits(nranks);
  std::vector<bool> reaped(nranks, false);
  const auto deadline = deadline_from(timeout_sec * 1000);
  int live = nranks;
  bool killed = false;
  while (live > 0) {
    for (int r = 0; r < nranks; ++r) {
      if (reaped[r]) continue;
      int status = 0;
      const pid_t got = ::waitpid(pids[r], &status, WNOHANG);
      if (got == pids[r]) {
        reaped[r] = true;
        --live;
        if (WIFEXITED(status)) {
          exits[r].code = WEXITSTATUS(status);
        } else if (WIFSIGNALED(status)) {
          exits[r].signaled = true;
          exits[r].code = WTERMSIG(status);
          exits[r].timed_out = killed;
        }
      }
    }
    if (live == 0) break;
    if (!killed && remaining_ms(deadline) <= 0) {
      // Deadline: a wedged collective must fail the test, not stall it.
      killed = true;
      for (int r = 0; r < nranks; ++r)
        if (!reaped[r]) ::kill(pids[r], SIGKILL);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  remove_tree(dir);
  return exits;
}

void SocketGroup::run(int nranks, const RankFn& fn, int timeout_sec) {
  const std::vector<RankExit> exits = run_collect(nranks, fn, timeout_sec);
  std::string bad;
  for (int r = 0; r < nranks; ++r) {
    const RankExit& e = exits[r];
    if (!e.signaled && e.code == 0) continue;
    bad += " rank " + std::to_string(r) +
           (e.timed_out ? " killed at the deadline"
            : e.signaled ? " died on signal " + std::to_string(e.code)
                         : " exited " + std::to_string(e.code));
  }
  PWDFT_CHECK(bad.empty(), "SocketGroup: " << nranks << "-rank run failed:" << bad);
}

}  // namespace pwdft::par
