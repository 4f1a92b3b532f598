/// \file test_socket_comm.cpp
/// Cross-backend Comm conformance sweep (Serial / Thread / Socket) plus
/// socket-specific fault injection: every collective must be bit-identical
/// across backends, and every injected failure (peer death, truncation,
/// corruption, connect timeout) must surface as a typed CommError within
/// the configured timeout — never as a hang.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "comm_conformance.hpp"
#include "common/timer.hpp"
#include "parallel/socket_comm.hpp"

namespace pwdft {
namespace {

using par::CommError;
using par::CommFault;
using par::SocketComm;
using par::SocketCommOptions;
using par::SocketGroup;
using test::CommBackend;

// --- conformance sweep ------------------------------------------------------

struct SweepCase {
  CommBackend backend;
  int np;
};

class CommConformance : public ::testing::TestWithParam<SweepCase> {};

std::string sweep_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return std::string(test::backend_name(info.param.backend)) + "_np" +
         std::to_string(info.param.np);
}

TEST_P(CommConformance, AllCollectivesBitwise) {
  const SweepCase p = GetParam();
  test::run_backend(p.backend, p.np, [](par::Comm& c) { test::check_all_collectives(c); });
}

INSTANTIATE_TEST_SUITE_P(Backends, CommConformance,
                         ::testing::Values(SweepCase{CommBackend::kSerial, 1},
                                           SweepCase{CommBackend::kThread, 1},
                                           SweepCase{CommBackend::kThread, 2},
                                           SweepCase{CommBackend::kThread, 3},
                                           SweepCase{CommBackend::kThread, 4},
                                           SweepCase{CommBackend::kSocket, 1},
                                           SweepCase{CommBackend::kSocket, 2},
                                           SweepCase{CommBackend::kSocket, 3},
                                           SweepCase{CommBackend::kSocket, 4}),
                         sweep_name);

// --- dup() under concurrent collectives (ThreadComm + SocketComm) -----------

TEST(CommConcurrency, ThreadDupStreamsStayIndependent) {
  for (int np : {2, 4})
    test::run_backend(CommBackend::kThread, np,
                      [](par::Comm& c) { test::check_concurrent_dup_collectives(c); });
}

TEST(CommConcurrency, SocketDupStreamsStayIndependent) {
  test::run_backend(CommBackend::kSocket, 2,
                    [](par::Comm& c) { test::check_concurrent_dup_collectives(c, 8); });
}

// --- socket-specific semantics ----------------------------------------------

TEST(SocketComm, SingleRankTrivialComm) {
  const auto c = SocketComm::connect(0, 1, "unix:/tmp/unused_rv", SocketCommOptions{});
  EXPECT_EQ(c->rank(), 0);
  EXPECT_EQ(c->size(), 1);
  test::check_all_collectives(*c);
}

TEST(SocketComm, TcpLoopbackRendezvous) {
  // Forked ranks over a TCP loopback rendezvous (mesh follows the
  // transport), then two ranks that each call SocketComm::connect with a
  // fixed TCP address — the entry point of independently launched ranks.
  SocketGroup::run(2, [](par::Comm& c) { test::check_allreduce_double(c); });
  std::vector<std::thread> ranks;
  std::vector<std::string> errors(2);
  const std::string rv = "tcp:127.0.0.1:39417";
  for (int r = 0; r < 2; ++r)
    ranks.emplace_back([r, &rv, &errors] {
      try {
        const auto c = SocketComm::connect(r, 2, rv, SocketCommOptions{});
        test::check_allreduce_double(*c);
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  for (auto& t : ranks) t.join();
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
}

// --- fault injection ---------------------------------------------------------
// Every failure must be a typed CommError within the timeout. The exit-code
// convention of SocketGroup::run_collect (4 = CommError escaped) proves
// typedness across the process boundary; the WallTimer bound proves no hang.

TEST(SocketFaults, RendezvousAcceptTimesOut) {
  SocketCommOptions opts;
  opts.timeout_ms = 300;
  WallTimer t;
  try {
    SocketComm::connect(0, 2, "unix:/tmp/pwdft_rv_nobody_joins", opts);
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.fault(), CommFault::kTimeout) << e.what();
  }
  EXPECT_LT(t.seconds(), 10.0);
}

TEST(SocketFaults, DialToNowhereTimesOut) {
  SocketCommOptions opts;
  opts.timeout_ms = 300;
  WallTimer t;
  try {
    SocketComm::connect(1, 2, "unix:/tmp/pwdft_no_such_rv_zz", opts);
    FAIL() << "expected CommError";
  } catch (const CommError& e) {
    EXPECT_EQ(e.fault(), CommFault::kConnect) << e.what();
  }
  EXPECT_LT(t.seconds(), 10.0);
}

TEST(SocketFaults, PeerDeathMidCollectiveIsTyped) {
  WallTimer t;
  const auto exits = SocketGroup::run_collect(
      2,
      [](par::Comm& c) {
        c.barrier();  // mesh complete on both sides before the death
        if (c.rank() == 1) std::_Exit(9);
        double v = 1.0;
        c.allreduce_sum(&v, 1);  // survivor must get a typed error, not hang
      },
      /*timeout_sec=*/30);
  EXPECT_FALSE(exits[0].timed_out);
  EXPECT_FALSE(exits[0].signaled);
  EXPECT_EQ(exits[0].code, 4) << "rank 0 should die on a CommError";
  EXPECT_EQ(exits[1].code, 9);
  EXPECT_LT(t.seconds(), 30.0);
}

TEST(SocketFaults, PeerDeathDuringDupIsTyped) {
  // dup() shares its fresh listeners by JOIN/TABLE over the parent links:
  // rank 0 waiting for a dead peer's JOIN must fail typed, not hang.
  WallTimer t;
  const auto exits = SocketGroup::run_collect(
      2,
      [](par::Comm& c) {
        c.barrier();  // mesh complete on both sides before the death
        if (c.rank() == 1) std::_Exit(9);
        c.dup();  // survivor must get a typed error, not hang
      },
      /*timeout_sec=*/30);
  EXPECT_FALSE(exits[0].timed_out);
  EXPECT_FALSE(exits[0].signaled);
  EXPECT_EQ(exits[0].code, 4) << "rank 0 should die on a CommError";
  EXPECT_EQ(exits[1].code, 9);
  EXPECT_LT(t.seconds(), 30.0);
}

TEST(SocketFaults, BitFlippedFrameIsTyped) {
  WallTimer t;
  const auto exits = SocketGroup::run_collect(
      2,
      [](par::Comm& c) {
        auto* sc = dynamic_cast<SocketComm*>(&c);
        ASSERT_NE(sc, nullptr);
        if (c.rank() == 1) sc->debug_inject_fault(SocketComm::Inject::kFlipPayloadByte);
        double v = 1.0;
        c.allreduce_sum(&v, 1);
      },
      /*timeout_sec=*/60);
  // Rank 0 sees the checksum mismatch; rank 1, waiting for the result from
  // a peer that just died on it, gets a typed error too.
  EXPECT_FALSE(exits[0].timed_out);
  EXPECT_FALSE(exits[1].timed_out);
  EXPECT_EQ(exits[0].code, 4);
  EXPECT_EQ(exits[1].code, 4);
  EXPECT_LT(t.seconds(), 60.0);
}

TEST(SocketFaults, TruncatedFrameIsTyped) {
  WallTimer t;
  const auto exits = SocketGroup::run_collect(
      2,
      [](par::Comm& c) {
        auto* sc = dynamic_cast<SocketComm*>(&c);
        ASSERT_NE(sc, nullptr);
        if (c.rank() == 1) sc->debug_inject_fault(SocketComm::Inject::kTruncateFrame);
        double v = 1.0;
        c.allreduce_sum(&v, 1);
      },
      /*timeout_sec=*/60);
  EXPECT_FALSE(exits[0].timed_out);
  EXPECT_FALSE(exits[1].timed_out);
  EXPECT_EQ(exits[0].code, 4);
  EXPECT_EQ(exits[1].code, 4);
  EXPECT_LT(t.seconds(), 60.0);
}

TEST(SocketFaults, WedgedPeerIsATimeoutNotAHang) {
  // A rank that never shows up for a collective: the survivor times out
  // with a typed error well before the group deadline, and the deadline
  // reaps the wedged rank itself.
  ::setenv("PWDFT_COMM_TIMEOUT_MS", "1500", 1);
  const auto exits = SocketGroup::run_collect(
      2,
      [](par::Comm& c) {
        if (c.rank() == 1) {
          std::this_thread::sleep_for(std::chrono::seconds(3600));  // wedged
        }
        double v = 1.0;
        c.allreduce_sum(&v, 1);
      },
      /*timeout_sec=*/6);
  ::unsetenv("PWDFT_COMM_TIMEOUT_MS");
  EXPECT_FALSE(exits[0].timed_out);
  EXPECT_EQ(exits[0].code, 4) << "survivor should see CommError{kTimeout}";
  EXPECT_TRUE(exits[1].timed_out);
  EXPECT_TRUE(exits[1].signaled);
}

}  // namespace
}  // namespace pwdft
