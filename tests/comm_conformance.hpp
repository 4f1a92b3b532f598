#pragma once

/// \file comm_conformance.hpp
/// Cross-backend Comm conformance harness.
///
/// Every check runs the same rank function over any backend and compares
/// collective results BITWISE against an expectation each rank computes
/// locally from (rank, size) alone — the fold order is pinned to the
/// ThreadComm contract (zero-initialized accumulator, contributions added
/// in rank order 0..P-1), so Serial, Thread, and Socket backends must all
/// produce identical bits or the check fails.
///
/// New Comm backends must pass every check in this header (swept over the
/// rank counts in test_socket_comm.cpp) before anything else may use them;
/// docs/threading.md carries the checklist item.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "parallel/comm.hpp"
#include "parallel/socket_comm.hpp"
#include "parallel/thread_comm.hpp"

namespace pwdft::test {

enum class CommBackend { kSerial, kThread, kSocket };

inline const char* backend_name(CommBackend b) {
  switch (b) {
    case CommBackend::kSerial: return "serial";
    case CommBackend::kThread: return "thread";
    case CommBackend::kSocket: return "socket";
  }
  return "?";
}

/// Runs `fn` on every rank of an np-wide communicator of the given
/// backend. Socket ranks are forked processes whose gtest failures are
/// invisible to the parent, so the wrapper converts any EXPECT failure
/// into a nonzero child exit, which SocketGroup::run turns into a parent
/// test failure.
inline void run_backend(CommBackend b, int np, const std::function<void(par::Comm&)>& fn,
                        int timeout_sec = 120) {
  switch (b) {
    case CommBackend::kSerial: {
      ASSERT_EQ(np, 1) << "serial backend is single-rank by definition";
      par::SerialComm c;
      fn(c);
      return;
    }
    case CommBackend::kThread:
      par::ThreadGroup::run(np, fn);
      return;
    case CommBackend::kSocket:
      par::SocketGroup::run(
          np,
          [&](par::Comm& c) {
            fn(c);
            if (::testing::Test::HasFailure())
              throw Error("conformance expectation failed in forked rank");
          },
          timeout_sec);
      return;
  }
}

// --- bitwise comparison helpers --------------------------------------------

inline std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

#define PWDFT_EXPECT_BITEQ(a, b) \
  EXPECT_EQ(pwdft::test::bits_of(a), pwdft::test::bits_of(b)) << "values " << (a) << " vs " << (b)

/// Deterministic per-(rank, index) test signal; irrational-ish factors so
/// no two ranks contribute identical values and reassociation shows up.
inline double signal(int rank, std::size_t i) {
  return std::sin(0.7 * static_cast<double>(i) + 1.3 * (rank + 1)) *
         (1.0 + 0.01 * static_cast<double>(rank));
}

inline unsigned char byte_signal(int rank, std::size_t i) {
  return static_cast<unsigned char>((31 * rank + 17 * static_cast<int>(i) + 5) & 0xff);
}

// --- collective checks ------------------------------------------------------
// Each check is callable on any Comm (any backend, any rank of it).

inline void check_allreduce_double(par::Comm& c, std::size_t count = 257) {
  std::vector<double> data(count), expect(count, 0.0);
  for (std::size_t i = 0; i < count; ++i) data[i] = signal(c.rank(), i);
  for (int r = 0; r < c.size(); ++r)
    for (std::size_t i = 0; i < count; ++i) expect[i] += signal(r, i);
  c.allreduce_sum(data.data(), count);
  for (std::size_t i = 0; i < count; ++i) PWDFT_EXPECT_BITEQ(data[i], expect[i]);
}

inline void check_allreduce_complex(par::Comm& c, std::size_t count = 131) {
  std::vector<Complex> data(count), expect(count, Complex{});
  for (std::size_t i = 0; i < count; ++i)
    data[i] = Complex(signal(c.rank(), i), signal(c.rank(), i + count));
  for (int r = 0; r < c.size(); ++r)
    for (std::size_t i = 0; i < count; ++i)
      expect[i] += Complex(signal(r, i), signal(r, i + count));
  c.allreduce_sum(data.data(), count);
  for (std::size_t i = 0; i < count; ++i) {
    PWDFT_EXPECT_BITEQ(data[i].real(), expect[i].real());
    PWDFT_EXPECT_BITEQ(data[i].imag(), expect[i].imag());
  }
}

inline void check_bcast(par::Comm& c, std::size_t bytes = 613) {
  for (int root = 0; root < c.size(); ++root) {
    std::vector<unsigned char> buf(bytes, 0);
    if (c.rank() == root)
      for (std::size_t i = 0; i < bytes; ++i) buf[i] = byte_signal(root, i);
    c.bcast_bytes(buf.data(), bytes, root);
    for (std::size_t i = 0; i < bytes; ++i) {
      ASSERT_EQ(buf[i], byte_signal(root, i)) << "root " << root << " byte " << i;
    }
  }
}

inline void check_alltoallv(par::Comm& c) {
  const int np = c.size();
  const auto pair_count = [](int src, int dst) {
    return static_cast<std::size_t>(((3 * src + 5 * dst) % 4) + 1);
  };
  const auto pair_byte = [](int src, int dst, std::size_t i) {
    return static_cast<unsigned char>((src * 31 + dst * 17 + static_cast<int>(i)) & 0xff);
  };
  std::vector<std::size_t> sc(np), sd(np), rc(np), rd(np);
  std::size_t stot = 0, rtot = 0;
  for (int r = 0; r < np; ++r) {
    sc[r] = pair_count(c.rank(), r);
    sd[r] = stot;
    stot += sc[r];
    rc[r] = pair_count(r, c.rank());
    rd[r] = rtot;
    rtot += rc[r];
  }
  std::vector<unsigned char> send(stot), recv(rtot, 0xee);
  for (int r = 0; r < np; ++r)
    for (std::size_t i = 0; i < sc[r]; ++i) send[sd[r] + i] = pair_byte(c.rank(), r, i);
  c.alltoallv_bytes(send.data(), sc.data(), sd.data(), recv.data(), rc.data(), rd.data());
  for (int r = 0; r < np; ++r)
    for (std::size_t i = 0; i < rc[r]; ++i) {
      ASSERT_EQ(recv[rd[r] + i], pair_byte(r, c.rank(), i)) << "from rank " << r << " byte " << i;
    }
}

inline void check_barrier(par::Comm& c) {
  // Interleave with an allreduce so a desynchronized barrier (a rank
  // skipping ahead) would scramble the collective sequence and fail.
  for (int iter = 0; iter < 3; ++iter) {
    c.barrier();
    double v = static_cast<double>(c.rank() + iter);
    c.allreduce_sum(&v, 1);
    double expect = 0;
    for (int r = 0; r < c.size(); ++r) expect += static_cast<double>(r + iter);
    PWDFT_EXPECT_BITEQ(v, expect);
  }
}

inline void check_dup(par::Comm& c) {
  const std::unique_ptr<par::Comm> d = c.dup();
  ASSERT_EQ(d->rank(), c.rank());
  ASSERT_EQ(d->size(), c.size());
  // Interleaved collectives on parent and duplicate stay independent.
  double a = signal(c.rank(), 1), b = signal(c.rank(), 2);
  c.allreduce_sum(&a, 1);
  d->allreduce_sum(&b, 1);
  double ea = 0, eb = 0;
  for (int r = 0; r < c.size(); ++r) {
    ea += signal(r, 1);
    eb += signal(r, 2);
  }
  PWDFT_EXPECT_BITEQ(a, ea);
  PWDFT_EXPECT_BITEQ(b, eb);
}

/// A dup() offspring used from a second thread while the parent
/// communicator keeps running its own collectives — the TransposeOverlap
/// pattern. Streams must not interleave (run over ThreadComm and
/// SocketComm).
inline void check_concurrent_dup_collectives(par::Comm& c, int rounds = 16) {
  const std::unique_ptr<par::Comm> d = c.dup();
  std::vector<double> got(rounds);
  std::thread side([&] {
    for (int k = 0; k < rounds; ++k) {
      double v = signal(d->rank(), 100 + k);
      d->allreduce_sum(&v, 1);
      got[k] = v;
    }
  });
  for (int k = 0; k < rounds; ++k) {
    double v = signal(c.rank(), 200 + k);
    c.allreduce_sum(&v, 1);
    double expect = 0;
    for (int r = 0; r < c.size(); ++r) expect += signal(r, 200 + k);
    PWDFT_EXPECT_BITEQ(v, expect);
  }
  side.join();
  for (int k = 0; k < rounds; ++k) {
    double expect = 0;
    for (int r = 0; r < c.size(); ++r) expect += signal(r, 100 + k);
    PWDFT_EXPECT_BITEQ(got[k], expect);
  }
}

/// The full sweep a new backend must pass (docs/threading.md checklist):
/// every operation of par::Comm.
inline void check_all_collectives(par::Comm& c) {
  check_allreduce_double(c);
  check_allreduce_complex(c);
  check_bcast(c);
  check_alltoallv(c);
  check_barrier(c);
  check_dup(c);
}

}  // namespace pwdft::test
