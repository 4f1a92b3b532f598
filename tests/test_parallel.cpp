#include <gtest/gtest.h>

#include <numeric>

#include "common/exec.hpp"
#include "parallel/comm.hpp"
#include "parallel/distribution.hpp"
#include "parallel/overlap.hpp"
#include "parallel/thread_comm.hpp"
#include "parallel/transpose.hpp"
#include "test_helpers.hpp"

namespace pwdft {
namespace {

using par::BlockPartition;
using par::Comm;
using par::CommOp;
using par::ThreadGroup;

class RankCounts : public ::testing::TestWithParam<int> {};

TEST_P(RankCounts, RanksSeeCorrectIdentity) {
  const int np = GetParam();
  std::vector<int> seen(np, -1);
  ThreadGroup::run(np, [&](Comm& c) {
    EXPECT_EQ(c.size(), np);
    seen[c.rank()] = c.rank();
  });
  for (int r = 0; r < np; ++r) EXPECT_EQ(seen[r], r);
}

TEST_P(RankCounts, BcastDeliversFromEveryRoot) {
  const int np = GetParam();
  ThreadGroup::run(np, [&](Comm& c) {
    for (int root = 0; root < np; ++root) {
      std::vector<double> buf(16, c.rank() == root ? 3.25 * root : -1.0);
      c.bcast(buf.data(), buf.size(), root);
      for (double v : buf) EXPECT_EQ(v, 3.25 * root);
    }
  });
}

TEST_P(RankCounts, AllreduceSumsDoubles) {
  const int np = GetParam();
  ThreadGroup::run(np, [&](Comm& c) {
    std::vector<double> v(8);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = c.rank() + double(i);
    c.allreduce_sum(v.data(), v.size());
    const double rank_sum = np * (np - 1) / 2.0;
    for (std::size_t i = 0; i < v.size(); ++i) EXPECT_DOUBLE_EQ(v[i], rank_sum + np * double(i));
  });
}

TEST_P(RankCounts, AllreduceSumsComplex) {
  const int np = GetParam();
  ThreadGroup::run(np, [&](Comm& c) {
    Complex v{1.0, double(c.rank())};
    c.allreduce_sum(&v, 1);
    EXPECT_DOUBLE_EQ(v.real(), double(np));
    EXPECT_DOUBLE_EQ(v.imag(), np * (np - 1) / 2.0);
  });
}

TEST_P(RankCounts, AlltoallvRoutesBlocks) {
  const int np = GetParam();
  ThreadGroup::run(np, [&](Comm& c) {
    const int me = c.rank();
    // Rank r sends one byte-tagged double to every rank.
    std::vector<double> send(np), recv(np);
    for (int r = 0; r < np; ++r) send[r] = 100.0 * me + r;
    std::vector<std::size_t> counts(np, sizeof(double)), displs(np);
    for (int r = 0; r < np; ++r) displs[r] = r * sizeof(double);
    c.alltoallv_bytes(reinterpret_cast<unsigned char*>(send.data()), counts.data(),
                      displs.data(), reinterpret_cast<unsigned char*>(recv.data()), counts.data(),
                      displs.data());
    for (int r = 0; r < np; ++r) EXPECT_DOUBLE_EQ(recv[r], 100.0 * r + me);
  });
}

INSTANTIATE_TEST_SUITE_P(Np, RankCounts, ::testing::Values(1, 2, 3, 4, 6));

TEST(ThreadComm, StatsCountReceiveSideBytes) {
  auto stats = ThreadGroup::run(3, [&](Comm& c) {
    std::vector<double> buf(100, double(c.rank()));
    c.bcast(buf.data(), buf.size(), 0);
  });
  EXPECT_EQ(stats[0].get(CommOp::kBcast).bytes, 0u);  // root sends
  EXPECT_EQ(stats[1].get(CommOp::kBcast).bytes, 800u);
  EXPECT_EQ(stats[2].get(CommOp::kBcast).bytes, 800u);
  EXPECT_EQ(stats[1].get(CommOp::kBcast).calls, 1u);
}

TEST(ThreadComm, ExceptionFromRankPropagates) {
  EXPECT_THROW(ThreadGroup::run(2,
                                [&](Comm& c) {
                                  // Both ranks throw before any collective, so
                                  // no rank is left waiting at a barrier.
                                  if (c.size() == 2) throw Error("rank failure");
                                }),
               Error);
}

TEST(ThreadComm, DupCreatesIndependentRendezvousDomain) {
  // Collectives on the duplicate must not interleave with collectives on
  // the parent even when each rank issues them from two different threads
  // concurrently (the transpose-overlap shape of the PT-CN propagator).
  const int np = 3;
  ThreadGroup::run(np, [&](Comm& c) {
    auto dup = c.dup();
    EXPECT_EQ(dup->rank(), c.rank());
    EXPECT_EQ(dup->size(), c.size());
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<double> a(64, double(c.rank() + 1));
      std::vector<double> b(64, 10.0 * (c.rank() + 1));
      exec::TaskGroup tg;
      tg.run([&] { dup->allreduce_sum(a.data(), a.size()); });
      c.allreduce_sum(b.data(), b.size());
      tg.wait();
      EXPECT_DOUBLE_EQ(a[0], 1.0 + 2.0 + 3.0);
      EXPECT_DOUBLE_EQ(b[0], 10.0 + 20.0 + 30.0);
    }
  });
}

TEST(SerialComm, DupIsSerial) {
  par::SerialComm c;
  auto dup = c.dup();
  EXPECT_EQ(dup->size(), 1);
  std::vector<double> v(4, 2.0);
  dup->allreduce_sum(v.data(), v.size());
  EXPECT_DOUBLE_EQ(v[0], 2.0);
}

TEST(CommStats, MergeFoldsCounts) {
  par::CommStats a, b;
  a.add(CommOp::kBcast, 100, 0.5);
  b.add(CommOp::kBcast, 50, 0.25);
  b.add(CommOp::kAlltoallv, 10, 0.1);
  a.merge(b);
  EXPECT_EQ(a.get(CommOp::kBcast).calls, 2u);
  EXPECT_EQ(a.get(CommOp::kBcast).bytes, 150u);
  EXPECT_EQ(a.get(CommOp::kAlltoallv).bytes, 10u);
}

TEST(SerialComm, CollectivesAreLocal) {
  par::SerialComm c;
  EXPECT_EQ(c.size(), 1);
  std::vector<double> v(4, 2.0);
  c.allreduce_sum(v.data(), v.size());
  EXPECT_DOUBLE_EQ(v[0], 2.0);
  c.bcast(v.data(), v.size(), 0);
  EXPECT_DOUBLE_EQ(v[3], 2.0);
}

TEST(BlockPartition, CountsAndOffsetsAreConsistent) {
  for (std::size_t total : {0ul, 1ul, 7ul, 16ul, 33ul}) {
    for (int parts : {1, 2, 3, 5, 8}) {
      BlockPartition p(total, parts);
      std::size_t acc = 0;
      for (int r = 0; r < parts; ++r) {
        EXPECT_EQ(p.offset(r), acc);
        acc += p.count(r);
      }
      EXPECT_EQ(acc, total);
      // Near-equal: max-min <= 1.
      std::size_t mn = total + 1, mx = 0;
      for (int r = 0; r < parts; ++r) {
        mn = std::min(mn, p.count(r));
        mx = std::max(mx, p.count(r));
      }
      EXPECT_LE(mx - mn, 1u);
    }
  }
}

TEST(BlockPartition, OwnerInvertsOffsets) {
  BlockPartition p(29, 4);
  for (std::size_t i = 0; i < 29; ++i) {
    const int r = p.owner(i);
    EXPECT_GE(i, p.offset(r));
    EXPECT_LT(i, p.offset(r) + p.count(r));
  }
}

class TransposeRanks : public ::testing::TestWithParam<int> {};

TEST_P(TransposeRanks, BandToGAndBackIsIdentity) {
  const int np = GetParam();
  const std::size_t ng = 37, nb = 10;
  CMatrix full(ng, nb);
  Rng rng(13);
  for (std::size_t i = 0; i < full.size(); ++i) full.data()[i] = rng.complex_normal();

  ThreadGroup::run(np, [&](Comm& c) {
    BlockPartition bands(nb, np), gvecs(ng, np);
    par::WavefunctionTranspose tr(gvecs, bands);
    CMatrix band_local = test::band_slice(full, bands, c.rank());

    CMatrix g_local;
    tr.band_to_g(c, band_local, g_local, /*single_precision=*/false);
    // The G layout must hold every band's rows in this rank's row range.
    EXPECT_EQ(g_local.rows(), gvecs.count(c.rank()));
    EXPECT_EQ(g_local.cols(), nb);
    for (std::size_t j = 0; j < nb; ++j)
      for (std::size_t i = 0; i < g_local.rows(); ++i)
        EXPECT_EQ(g_local(i, j), full(gvecs.offset(c.rank()) + i, j));

    CMatrix back;
    tr.g_to_band(c, g_local, back, /*single_precision=*/false);
    EXPECT_NEAR(test::max_abs_diff(back, band_local), 0.0, 0.0);
  });
}

TEST_P(TransposeRanks, SinglePrecisionRoundTripWithinFloatEps) {
  const int np = GetParam();
  const std::size_t ng = 24, nb = 6;
  CMatrix full(ng, nb);
  Rng rng(14);
  for (std::size_t i = 0; i < full.size(); ++i) full.data()[i] = rng.complex_normal();
  ThreadGroup::run(np, [&](Comm& c) {
    BlockPartition bands(nb, np), gvecs(ng, np);
    par::WavefunctionTranspose tr(gvecs, bands);
    CMatrix band_local = test::band_slice(full, bands, c.rank());
    CMatrix g_local, back;
    tr.band_to_g(c, band_local, g_local, true);
    tr.g_to_band(c, g_local, back, true);
    EXPECT_LT(test::max_abs_diff(back, band_local), 1e-6);
  });
}

INSTANTIATE_TEST_SUITE_P(Np, TransposeRanks, ::testing::Values(1, 2, 3, 4));

TEST(Transpose, AlltoallvVolumeMatchesFormula) {
  // Paper §3.3: the residual-related transposes move NG*Ne coefficients
  // split across ranks; each rank receives the complement of its own block.
  const int np = 3;
  const std::size_t ng = 30, nb = 6;
  CMatrix full(ng, nb, Complex{1.0, 0.0});
  auto stats = ThreadGroup::run(np, [&](Comm& c) {
    BlockPartition bands(nb, np), gvecs(ng, np);
    par::WavefunctionTranspose tr(gvecs, bands);
    CMatrix band_local = test::band_slice(full, bands, c.rank());
    CMatrix g_local;
    tr.band_to_g(c, band_local, g_local, false);
  });
  for (int r = 0; r < np; ++r) {
    BlockPartition bands(nb, np), gvecs(ng, np);
    const std::size_t expect =
        (nb - bands.count(r)) * gvecs.count(r) * sizeof(Complex) +
        bands.count(r) * (ng - gvecs.count(r)) * 0;  // receive side counts rows it gets
    // Received bytes = sum over other ranks of (their bands x my rows).
    std::size_t recv = 0;
    for (int s = 0; s < np; ++s)
      if (s != r) recv += bands.count(s) * gvecs.count(r) * sizeof(Complex);
    (void)expect;
    EXPECT_EQ(stats[r].get(CommOp::kAlltoallv).bytes, recv);
  }
}

TEST(Overlap, AsyncTransposeMatchesSynchronousBitwise) {
  // The packed-now / parked-exchange / unpack-at-wait path must produce the
  // identical bits as the synchronous transpose, in both directions, while
  // the parent communicator stays busy with unrelated collectives.
  const int np = 4;
  const std::size_t ng = 33, nb = 6;
  CMatrix full(ng, nb);
  Rng rng(41);
  for (std::size_t i = 0; i < full.size(); ++i) full.data()[i] = rng.complex_normal();
  for (bool sp : {false, true}) {
    ThreadGroup::run(np, [&](Comm& c) {
      BlockPartition bands(nb, np), gvecs(ng, np);
      par::WavefunctionTranspose tr(gvecs, bands);
      CMatrix band_local = test::band_slice(full, bands, c.rank());

      CMatrix g_sync;
      tr.band_to_g(c, band_local, g_sync, sp);

      par::TransposeOverlap ovl;
      CMatrix g_async;
      ovl.start_band_to_g(tr, c, band_local, g_async, sp);
      // Keep the parent comm busy while the exchange is in flight.
      for (int rep = 0; rep < 5; ++rep) {
        double v = 1.0;
        c.allreduce_sum(&v, 1);
      }
      ovl.wait();
      ASSERT_EQ(g_async.rows(), g_sync.rows());
      ASSERT_EQ(g_async.cols(), g_sync.cols());
      for (std::size_t i = 0; i < g_sync.size(); ++i)
        EXPECT_EQ(g_async.data()[i], g_sync.data()[i]);

      CMatrix band_sync, band_async;
      tr.g_to_band(c, g_sync, band_sync, sp);
      ovl.start_g_to_band(tr, c, g_sync, band_async, sp);
      c.barrier();
      ovl.wait();
      for (std::size_t i = 0; i < band_sync.size(); ++i)
        EXPECT_EQ(band_async.data()[i], band_sync.data()[i]);
    });
  }
}

TEST(Overlap, TwoStreamsInFlightConcurrently) {
  // PT-CN keeps a psi stream and a half stream airborne at once; each
  // instance owns its communicator and wires, so both exchanges may be
  // pending simultaneously.
  const int np = 3;
  const std::size_t ng = 20, nb = 5;
  CMatrix a_full(ng, nb), b_full(ng, nb);
  Rng rng(47);
  for (std::size_t i = 0; i < a_full.size(); ++i) a_full.data()[i] = rng.complex_normal();
  for (std::size_t i = 0; i < b_full.size(); ++i) b_full.data()[i] = rng.complex_normal();
  ThreadGroup::run(np, [&](Comm& c) {
    BlockPartition bands(nb, np), gvecs(ng, np);
    par::WavefunctionTranspose tr(gvecs, bands);
    CMatrix a_local = test::band_slice(a_full, bands, c.rank());
    CMatrix b_local = test::band_slice(b_full, bands, c.rank());
    CMatrix a_ref, b_ref;
    tr.band_to_g(c, a_local, a_ref, false);
    tr.band_to_g(c, b_local, b_ref, false);

    par::TransposeOverlap s1, s2;
    CMatrix a_g, b_g;
    s1.start_band_to_g(tr, c, a_local, a_g, false);
    s2.start_band_to_g(tr, c, b_local, b_g, false);
    c.barrier();
    s2.wait();
    s1.wait();
    for (std::size_t i = 0; i < a_ref.size(); ++i) EXPECT_EQ(a_g.data()[i], a_ref.data()[i]);
    for (std::size_t i = 0; i < b_ref.size(); ++i) EXPECT_EQ(b_g.data()[i], b_ref.data()[i]);
    s1.fold_stats(c);
    s2.fold_stats(c);
    // The overlap traffic lands in the parent's record after folding.
    EXPECT_GT(c.stats().get(CommOp::kAlltoallv).bytes, 0u);
  });
}

}  // namespace
}  // namespace pwdft
