#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/exec.hpp"
#include "common/random.hpp"
#include "fft/fft3d.hpp"
#include "grid/transforms.hpp"
#include "ham/density.hpp"
#include "ham/hamiltonian.hpp"

namespace pwdft {
namespace {

/// Restores the engine width on scope exit so tests compose.
struct ThreadGuard {
  ~ThreadGuard() { exec::set_num_threads(1); }
};

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadGuard guard;
  for (std::size_t nt : {1u, 2u, 4u}) {
    exec::set_num_threads(nt);
    const std::size_t n = 10007;  // prime: exercises ragged chunking
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    exec::parallel_for(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " nt=" << nt;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  exec::parallel_for(0, [&](std::size_t, std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, GrainIsRespected) {
  ThreadGuard guard;
  exec::set_num_threads(4);
  std::atomic<int> bad{0};
  const std::size_t n = 1000, grain = 64;
  exec::parallel_for(
      n,
      [&](std::size_t b, std::size_t e) {
        // Every chunk except the ragged tail must have >= grain elements.
        if (e - b < grain && e != n) bad.fetch_add(1);
      },
      grain);
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadGuard guard;
  exec::set_num_threads(4);
  std::vector<std::atomic<int>> hits(256);
  for (auto& h : hits) h.store(0);
  exec::parallel_for(16, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      exec::parallel_for(16, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t k = ib; k < ie; ++k) hits[i * 16 + k].fetch_add(1);
      });
    }
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionInChunkPropagatesAndPoolSurvives) {
  ThreadGuard guard;
  for (std::size_t nt : {1u, 4u}) {
    exec::set_num_threads(nt);
    EXPECT_THROW(
        exec::parallel_for(100,
                           [&](std::size_t b, std::size_t) {
                             if (b == 0) throw std::runtime_error("chunk failed");
                           }),
        std::runtime_error);
    // The engine must be reusable afterwards.
    std::atomic<int> sum{0};
    exec::parallel_for(10, [&](std::size_t b, std::size_t e) {
      sum.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(sum.load(), 10);
  }
}

TEST(ThreadPool, ConcurrentCallersBothComplete) {
  // Two external threads (the ThreadComm-ranks scenario) race for the pool;
  // the loser runs inline. Both must see full coverage.
  ThreadGuard guard;
  exec::set_num_threads(4);
  constexpr std::size_t n = 5000;
  std::vector<int> a(n, 0), b(n, 0);
  auto body = [n](std::vector<int>& v) {
    exec::parallel_for(n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) v[i] += 1;
    });
  };
  std::thread ta([&] { for (int rep = 0; rep < 50; ++rep) body(a); });
  std::thread tb([&] { for (int rep = 0; rep < 50; ++rep) body(b); });
  ta.join();
  tb.join();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a[i], 50);
    ASSERT_EQ(b[i], 50);
  }
}

TEST(TaskGroup, BlockingTasksDoNotStarveEachOther) {
  // Two tasks that can only finish together (a rendezvous) must run
  // concurrently — this is the prefetch-broadcast pattern of the Fock
  // operator across ThreadComm ranks.
  std::atomic<int> arrived{0};
  auto rendezvous = [&] {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  exec::TaskGroup tg;
  tg.run(rendezvous);
  tg.run(rendezvous);
  tg.wait();
  EXPECT_EQ(arrived.load(), 2);
}

TEST(TaskGroup, WaitJoinsAllTasks) {
  std::atomic<int> done{0};
  exec::TaskGroup tg;
  for (int i = 0; i < 8; ++i) tg.run([&] { done.fetch_add(1); });
  tg.wait();
  EXPECT_EQ(done.load(), 8);
  EXPECT_TRUE(tg.empty());
  // The group is reusable after wait().
  tg.run([&] { done.fetch_add(1); });
  tg.wait();
  EXPECT_EQ(done.load(), 9);
}

TEST(TaskGroup, WaitRethrowsFirstErrorAfterJoiningEverything) {
  std::atomic<int> done{0};
  exec::TaskGroup tg;
  tg.run([&] { done.fetch_add(1); });
  tg.run([] { throw std::runtime_error("task failed"); });
  tg.run([&] { done.fetch_add(1); });
  EXPECT_THROW(tg.wait(), std::runtime_error);
  // Every non-throwing task ran to completion before wait() returned.
  EXPECT_EQ(done.load(), 2);
  EXPECT_TRUE(tg.empty());
}

TEST(TaskGroup, DestructorJoinsAndSwallowsErrors) {
  std::atomic<bool> ran{false};
  {
    exec::TaskGroup tg;
    tg.run([&] {
      ran.store(true);
      throw std::runtime_error("ignored by the destructor");
    });
  }  // must not terminate
  EXPECT_TRUE(ran.load());
}

TEST(TaskGroup, RunBeyondCapacityThrowsAndKeepsTheGroupUsable) {
  // Completion slots are inline and fixed in number: the task past
  // kMaxTasks is refused up front instead of allocating a new slot.
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  exec::TaskGroup tg;
  for (std::size_t i = 0; i < exec::TaskGroup::kMaxTasks; ++i)
    tg.run([&] {
      while (!release.load()) std::this_thread::yield();
      done.fetch_add(1);
    });
  EXPECT_THROW(tg.run([&] { done.fetch_add(100); }), Error);
  release.store(true);
  tg.wait();
  EXPECT_EQ(done.load(), static_cast<int>(exec::TaskGroup::kMaxTasks));
  tg.run([&] { done.fetch_add(1); });
  tg.wait();
  EXPECT_EQ(done.load(), static_cast<int>(exec::TaskGroup::kMaxTasks) + 1);
}

TEST(TaskGroup, OverlapsWithParallelForOnTheCaller) {
  // The pipelining shape used by the Fock/transpose overlap: a blocking
  // async task in flight while the caller drives a fork-join loop.
  ThreadGuard guard;
  exec::set_num_threads(4);
  std::atomic<bool> release{false};
  std::atomic<int> sum{0};
  exec::TaskGroup tg;
  tg.run([&] {
    while (!release.load()) std::this_thread::yield();
  });
  exec::parallel_for(1000, [&](std::size_t b, std::size_t e) {
    sum.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(sum.load(), 1000);
  release.store(true);
  tg.wait();
}

TEST(ThreadPool, SetNumThreadsChangesSize) {
  ThreadGuard guard;
  exec::set_num_threads(3);
  EXPECT_EQ(exec::pool().size(), 3u);
  exec::set_num_threads(1);
  EXPECT_EQ(exec::pool().size(), 1u);
}

// ---- TaskGraph ----------------------------------------------------------

namespace {

/// Forces the parallel replay path even on single-core CI boxes (the
/// default policy would run graphs serially there), so the ready-ring and
/// dependency-counter machinery is actually exercised — and TSan-checked.
struct ParallelReplayGuard {
  ParallelReplayGuard() { exec::set_graph_serial_when_oversubscribed(false); }
  ~ParallelReplayGuard() { exec::set_graph_serial_when_oversubscribed(true); }
};

/// A three-stage pipeline graph over `lanes` independent chains:
/// stage 0 writes lane seed, stages 1 and 2 each add a constant reading the
/// previous stage's value — any dependency violation corrupts the result.
struct StageCtx {
  std::vector<int>* v;
};

void build_stage_graph(exec::TaskGraph& g, std::size_t lanes) {
  for (std::size_t l = 0; l < lanes; ++l) {
    auto s0 = g.add_node([l](void* p) { (*static_cast<StageCtx*>(p)->v)[l] = int(l); });
    auto s1 = g.add_node([l](void* p) { (*static_cast<StageCtx*>(p)->v)[l] += 1000; });
    auto s2 = g.add_node([l](void* p) { (*static_cast<StageCtx*>(p)->v)[l] *= 2; });
    g.add_edge(s0, s1);
    g.add_edge(s1, s2);
  }
  g.seal();
}

}  // namespace

TEST(TaskGraph, ExecutesAllNodesRespectingEdgesAtAnyWidth) {
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  for (std::size_t nt : {1u, 2u, 4u}) {
    exec::set_num_threads(nt);
    const std::size_t lanes = 97;
    exec::TaskGraph g;
    build_stage_graph(g, lanes);
    std::vector<int> v(lanes, -1);
    StageCtx ctx{&v};
    g.replay(&ctx);
    for (std::size_t l = 0; l < lanes; ++l)
      ASSERT_EQ(v[l], 2 * (int(l) + 1000)) << "lane " << l << " nt " << nt;
  }
}

TEST(TaskGraph, DiamondDependencyJoinsBothBranches) {
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  // a -> {b, c} -> d: d must observe both branch writes.
  std::atomic<int> a{0}, b{0}, c{0}, join_ok{0};
  exec::TaskGraph g;
  auto na = g.add_node([&](void*) { a.store(1); });
  auto nb = g.add_node([&](void*) { b.store(a.load() + 1); });
  auto nc = g.add_node([&](void*) { c.store(a.load() + 2); });
  auto nd = g.add_node([&](void*) { join_ok.store(b.load() == 2 && c.load() == 3); });
  g.add_edge(na, nb);
  g.add_edge(na, nc);
  g.add_edge(nb, nd);
  g.add_edge(nc, nd);
  g.seal();
  for (int rep = 0; rep < 50; ++rep) {
    a = b = c = join_ok = 0;
    g.replay(nullptr);
    ASSERT_EQ(join_ok.load(), 1) << "rep " << rep;
  }
}

TEST(TaskGraph, ReplayIsReusableAcrossContextsAndCoexistingShapes) {
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  // Two graphs of different shapes replayed alternately against distinct
  // contexts — the reuse pattern of the Fft3D graph cache (one graph per
  // batch shape, many data sets).
  exec::TaskGraph small, big;
  build_stage_graph(small, 3);
  build_stage_graph(big, 64);
  std::vector<int> va(3), vb(64), vc(3);
  StageCtx ca{&va}, cb{&vb}, cc{&vc};
  for (int rep = 0; rep < 10; ++rep) {
    small.replay(&ca);
    big.replay(&cb);
    small.replay(&cc);
    for (std::size_t l = 0; l < 3; ++l) {
      ASSERT_EQ(va[l], 2 * (int(l) + 1000));
      ASSERT_EQ(vc[l], 2 * (int(l) + 1000));
    }
    for (std::size_t l = 0; l < 64; ++l) ASSERT_EQ(vb[l], 2 * (int(l) + 1000));
  }
}

TEST(TaskGraph, ReplayFromAsyncLaneRunsInlineWithoutStealingThePool) {
  // The overlap contract extended to graphs: a replay issued from an
  // async-lane task must not win the pool away from the caller's compute.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  exec::TaskGraph g;
  build_stage_graph(g, 32);
  std::vector<int> v_async(32), v_main(32);
  StageCtx ca{&v_async}, cm{&v_main};
  exec::TaskGroup tg;
  std::atomic<bool> release{false};
  tg.run([&] {
    while (!release.load()) std::this_thread::yield();
    g.replay(&ca);  // pool may be busy with the main replay: runs inline
  });
  release.store(true);
  for (int rep = 0; rep < 100; ++rep) g.replay(&cm);
  tg.wait();
  for (std::size_t l = 0; l < 32; ++l) {
    ASSERT_EQ(v_async[l], 2 * (int(l) + 1000));
    ASSERT_EQ(v_main[l], 2 * (int(l) + 1000));
  }
}

TEST(TaskGraph, ConcurrentReplayFromTwoThreadsBothComplete) {
  // Two external threads (ThreadComm ranks) replay the same graph against
  // their own contexts: one wins the pool, the other runs serially inline.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  exec::TaskGraph g;
  build_stage_graph(g, 64);
  std::vector<int> va(64), vb(64);
  StageCtx ca{&va}, cb{&vb};
  std::thread ta([&] { for (int r = 0; r < 50; ++r) g.replay(&ca); });
  std::thread tb([&] { for (int r = 0; r < 50; ++r) g.replay(&cb); });
  ta.join();
  tb.join();
  for (std::size_t l = 0; l < 64; ++l) {
    ASSERT_EQ(va[l], 2 * (int(l) + 1000));
    ASSERT_EQ(vb[l], 2 * (int(l) + 1000));
  }
}

TEST(TaskGraph, NodeExceptionPropagatesAndGraphStaysReusable) {
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  for (std::size_t nt : {1u, 4u}) {
    exec::set_num_threads(nt);
    std::atomic<int> ran{0};
    exec::TaskGraph g;
    auto a = g.add_node([&](void*) { ran.fetch_add(1); });
    auto b = g.add_node([](void*) { throw std::runtime_error("node failed"); });
    auto c = g.add_node([&](void*) { ran.fetch_add(1); });
    g.add_edge(a, b);
    g.add_edge(b, c);  // never runs: its predecessor throws
    g.seal();
    EXPECT_THROW(g.replay(nullptr), std::runtime_error);
    // Reusable afterwards; the failing node keeps failing deterministically.
    EXPECT_THROW(g.replay(nullptr), std::runtime_error);
    EXPECT_GE(ran.load(), 2);  // `a` ran in both replays; `c` never did
  }
}

TEST(TaskGraph, RawNodePayloadsAndGates) {
  // The raw-pointer node form: one static trampoline + a packed payload per
  // node (the shape fft3d's pipeline hooks use), joined by a gate.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  for (std::size_t nt : {1u, 4u}) {
    exec::set_num_threads(nt);
    struct Ctx {
      std::array<int, 8> slot{};
      std::atomic<int> after_gate{0};
    } ctx;
    exec::TaskGraph g;
    std::vector<exec::TaskGraph::NodeId> writers;
    for (std::uint64_t i = 0; i < 8; ++i)
      writers.push_back(g.add_node(
          [](void* p, std::uint64_t payload) {
            static_cast<Ctx*>(p)->slot[payload] = static_cast<int>(payload) + 1;
          },
          i));
    const auto gate = g.add_gate(writers);
    const auto check = g.add_node([](void* p) {
      auto* c = static_cast<Ctx*>(p);
      int sum = 0;
      for (int v : c->slot) sum += v;
      c->after_gate.store(sum);
    });
    g.add_edge(gate, check);
    g.seal();
    g.replay(&ctx);
    EXPECT_EQ(ctx.after_gate.load(), 36) << "nt=" << nt;  // 1+2+...+8
  }
}

TEST(TaskGraph, BuildValidation) {
  exec::TaskGraph g;
  auto a = g.add_node([](void*) {});
  auto b = g.add_node([](void*) {});
  EXPECT_ANY_THROW(g.add_edge(b, a));  // edges must go low -> high id
  EXPECT_ANY_THROW(g.add_edge(a, 99));
  EXPECT_ANY_THROW(g.replay(nullptr));  // not sealed yet
  g.add_edge(a, b);
  g.add_edge(a, b);  // duplicate edges are legal and deduped at seal()
  g.seal();
  g.replay(nullptr);
  EXPECT_ANY_THROW(g.add_node([](void*) {}));  // sealed
}

// ---- Graph-backed FFT width sweep ---------------------------------------

TEST(TaskGraphFft, ReplayBitIdenticalAcrossWidths) {
  // Batched transforms replay a graph cached on first use; every line runs
  // the identical serial kernel, so the bytes are equal at every engine
  // width, and equal to a freshly built engine's (whose empty cache builds
  // the graph on this very call).
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  const std::size_t n = 12, nb = 5;
  fft::Fft3D cached_fft({n, n, n});
  Rng rng(41);
  std::vector<Complex> init(n * n * n * nb);
  for (auto& x : init) x = rng.complex_normal();

  std::vector<Complex> ref;
  for (std::size_t nt : {1u, 2u, 4u}) {
    exec::set_num_threads(nt);
    fft::Fft3D fresh_fft({n, n, n});
    for (const fft::Fft3D* fft : {&cached_fft, &fresh_fft}) {
      std::vector<Complex> data = init;
      fft->forward_many(data.data(), nb);
      fft->inverse_many(data.data(), nb);
      if (ref.empty()) {
        ref = data;
      } else {
        ASSERT_EQ(0, std::memcmp(ref.data(), data.data(), data.size() * sizeof(Complex)))
            << (fft == &cached_fft ? "cached" : "fresh") << " nt " << nt;
      }
    }
  }
}

// ---- Whole-operator pipelines & graph-cache identity ---------------------

namespace {

/// Per-call state of the direct run_pipeline tests below. Hooks are
/// captureless lambdas (so they decay to the BatchHook function pointers
/// the graph cache keys on).
struct PipeTestCtx {
  std::array<double, 8> v{};
  std::array<double, 3> out{};
};

}  // namespace

TEST(OperatorPipeline, ChainAndJoinSemantics) {
  // Stage::chain serializes consecutive runs in batch order (batch b reads
  // b-1's value — any order violation corrupts it) and a trailing join runs
  // only after every batch finished. Pure hook/join pipeline, widths 1/4.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  const auto chain_hook = +[](void* u, std::size_t b) {
    auto* c = static_cast<PipeTestCtx*>(u);
    c->v[b] = b % 2 == 0 ? static_cast<double>(b + 1) : c->v[b - 1] * 3.0;
  };
  const auto join_hook = +[](void* u, std::size_t j) {
    auto* c = static_cast<PipeTestCtx*>(u);
    const std::size_t per = 3;  // ceil(8 / 3 jobs)
    double acc = 0.0;
    for (std::size_t i = j * per; i < std::min<std::size_t>(8, (j + 1) * per); ++i)
      acc += c->v[i];
    c->out[j] = acc;
  };
  for (std::size_t nt : {1u, 4u}) {
    exec::set_num_threads(nt);
    fft::Fft3D fft({4, 4, 4});
    PipeTestCtx ctx;
    const std::array<fft::Fft3D::Stage, 2> stages = {
        fft::Fft3D::Stage::make_hook(chain_hook, &ctx, 2),
        fft::Fft3D::Stage::make_join(join_hook, &ctx, 3)};
    for (int rep = 0; rep < 20; ++rep) {
      ctx = PipeTestCtx{};
      fft.run_pipeline(8, stages);
      const std::array<double, 8> want = {1, 3, 3, 9, 5, 15, 7, 21};
      for (std::size_t b = 0; b < 8; ++b) ASSERT_EQ(ctx.v[b], want[b]) << "b=" << b;
      ASSERT_EQ(ctx.out[0], 7.0);
      ASSERT_EQ(ctx.out[1], 29.0);
      ASSERT_EQ(ctx.out[2], 28.0);
    }
  }
}

TEST(OperatorPipeline, NarrowHamiltonianApplyIsOneWake) {
  // The acceptance contract of the fused pipeline: a narrow (band×line
  // split) Hamiltonian::apply is ONE TaskGraph replay — a single pool wake,
  // no range jobs.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 4.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  ham::HamiltonianOptions opt;
  opt.hybrid.enabled = false;
  ham::Hamiltonian h(setup, species, opt);
  par::SerialComm comm;
  Rng rng(71);
  CMatrix psi(setup.n_g(), 2);
  for (std::size_t i = 0; i < psi.size(); ++i) psi.data()[i] = rng.complex_normal();
  CMatrix y;
  h.apply(psi, y, comm);  // warm-up: builds the cached graph, grows arenas
  const std::uint64_t g0 = exec::pool().graph_jobs();
  const std::uint64_t r0 = exec::pool().range_jobs();
  h.apply(psi, y, comm);
  EXPECT_EQ(exec::pool().graph_jobs() - g0, 1u);
  EXPECT_EQ(exec::pool().range_jobs() - r0, 0u);
}

TEST(OperatorPipeline, NarrowDensityIsOneWake) {
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 4.0, 1);
  fft::Fft3D fft_dense(setup.dense_grid.dims());
  Rng rng(73);
  CMatrix psi(setup.n_g(), 2);
  for (std::size_t i = 0; i < psi.size(); ++i) psi.data()[i] = rng.complex_normal();
  std::vector<double> occ(2, 2.0);
  par::SerialComm comm;
  (void)ham::compute_density(setup, fft_dense, psi, occ, comm);  // warm-up
  const std::uint64_t g0 = exec::pool().graph_jobs();
  const std::uint64_t r0 = exec::pool().range_jobs();
  (void)ham::compute_density(setup, fft_dense, psi, occ, comm);
  EXPECT_EQ(exec::pool().graph_jobs() - g0, 1u);
  EXPECT_EQ(exec::pool().range_jobs() - r0, 0u);
}

TEST(GraphCache, DistinguishesLineMaskContent) {
  // Two SphereMaps with equal mask lengths but different line content,
  // alternated through one Fft3D: a cache that keyed on shape alone would
  // replay the wrong (stale) line set. Every conversion is checked against
  // a freshly built engine, whose empty cache cannot replay a stale graph.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  const std::size_t n = 8, grid_n = n * n * n;
  fft::Fft3D graph_fft({n, n, n});
  std::vector<std::size_t> lower(grid_n / 2), upper(grid_n / 2);
  for (std::size_t i = 0; i < grid_n / 2; ++i) {
    lower[i] = i;
    upper[i] = grid_n / 2 + i;
  }
  grid::SphereMap sm_lower(lower, {n, n, n});
  grid::SphereMap sm_upper(upper, {n, n, n});
  ASSERT_EQ(sm_lower.x_lines.size(), sm_upper.x_lines.size());
  ASSERT_NE(sm_lower.x_lines, sm_upper.x_lines);
  Rng rng(79);
  std::vector<Complex> coeffs(grid_n / 2);
  for (auto& c : coeffs) c = rng.complex_normal();
  std::vector<Complex> a(grid_n), b(grid_n);
  for (const auto* sm : {&sm_lower, &sm_upper, &sm_lower, &sm_upper}) {
    fft::Fft3D fresh_fft({n, n, n});
    grid::sphere_to_grid(graph_fft, *sm, coeffs, a);
    grid::sphere_to_grid(fresh_fft, *sm, coeffs, b);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)));
  }
}

namespace {

/// Prologue hooks for the hook-identity cache test: same shape, different
/// function — must map to distinct cached graphs.
struct FillCtx {
  Complex* data;
  std::size_t n;
};
void fill_plus(void* u, std::size_t b) {
  const auto* c = static_cast<const FillCtx*>(u);
  for (std::size_t i = 0; i < c->n; ++i) c->data[b * c->n + i] = Complex(double(b + 1), 0.0);
}
void fill_minus(void* u, std::size_t b) {
  const auto* c = static_cast<const FillCtx*>(u);
  for (std::size_t i = 0; i < c->n; ++i) c->data[b * c->n + i] = Complex(-double(b + 1), 0.0);
}

}  // namespace

TEST(GraphCache, DistinguishesHookAndStageIdentity) {
  // Identical batch shape and masks, two different prologue hooks, plus a
  // pipeline with an extra interior stage: three distinct cached graphs.
  // Stale replay of any of them against the wrong hook/stage list would
  // produce the wrong sign or skip the negation. Every call is checked
  // against a freshly built engine, whose empty cache cannot replay a
  // stale graph.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  exec::set_num_threads(4);
  const std::size_t n = 6, grid_n = n * n * n, nb = 3;
  fft::Fft3D graph_fft({n, n, n});
  std::vector<Complex> a(grid_n * nb), b(grid_n * nb);
  // All-lines masks: the hook-fill contract is trivially satisfied.
  std::vector<std::uint32_t> all_x(n * n), all_y(n * n);
  for (std::size_t i = 0; i < n * n; ++i) all_x[i] = all_y[i] = std::uint32_t(i);
  FillCtx ca{a.data(), grid_n}, cb{b.data(), grid_n};
  for (int rep = 0; rep < 2; ++rep) {
    for (const auto hook : {&fill_plus, &fill_minus}) {
      graph_fft.inverse_many_active(a.data(), nb, all_x, all_y, *hook, &ca);
      fft::Fft3D({n, n, n}).inverse_many_active(b.data(), nb, all_x, all_y, *hook, &cb);
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)));
    }
    // Same shape with an extra interior negation stage (run_pipeline): must
    // not collide with the two-stage graphs above.
    const auto negate = +[](void* u, std::size_t batch) {
      const auto* c = static_cast<const FillCtx*>(u);
      for (std::size_t i = 0; i < c->n; ++i) c->data[batch * c->n + i] *= -1.0;
    };
    const std::array<fft::Fft3D::PassSpec, 3> passes = {
        fft::Fft3D::PassSpec{all_x.data(), all_x.size()},
        fft::Fft3D::PassSpec{all_y.data(), all_y.size()},
        fft::Fft3D::PassSpec{nullptr, n * n}};
    const std::array<fft::Fft3D::Stage, 3> st_a = {
        fft::Fft3D::Stage::make_hook(&fill_plus, &ca),
        fft::Fft3D::Stage::make_hook(negate, &ca),
        fft::Fft3D::Stage::make_passes(+1, a.data(), passes)};
    const std::array<fft::Fft3D::Stage, 3> st_b = {
        fft::Fft3D::Stage::make_hook(&fill_plus, &cb),
        fft::Fft3D::Stage::make_hook(negate, &cb),
        fft::Fft3D::Stage::make_passes(+1, b.data(), passes)};
    graph_fft.run_pipeline(nb, st_a);
    fft::Fft3D({n, n, n}).run_pipeline(nb, st_b);
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)));
  }
}

namespace {

/// Per-call state of the cache-full fallback test. The chained hook scales
/// member b's input by v[b], where v[b] reads v[b-1] inside each run of two
/// members; the join sums each job's slice of members in batch order.
struct FallbackCtx {
  const Complex* init = nullptr;
  Complex* grids = nullptr;
  std::size_t grid_n = 0;
  std::size_t count = 0;
  std::array<double, 8> v{};
  std::array<Complex, 3> sums{};
  static void scale(void* u, std::size_t b) {
    auto* c = static_cast<FallbackCtx*>(u);
    c->v[b] = b % 2 == 0 ? static_cast<double>(b + 1) : c->v[b - 1] * 3.0;
    for (std::size_t i = 0; i < c->grid_n; ++i)
      c->grids[b * c->grid_n + i] = c->v[b] * c->init[b * c->grid_n + i];
  }
  static void sum(void* u, std::size_t j) {
    auto* c = static_cast<FallbackCtx*>(u);
    const std::size_t per = (c->count + 2) / 3;
    Complex acc{0.0, 0.0};
    for (std::size_t b = j * per; b < std::min(c->count, (j + 1) * per); ++b)
      for (std::size_t i = 0; i < c->grid_n; ++i) acc += c->grids[b * c->grid_n + i];
    c->sums[j] = acc;
  }
};

}  // namespace

TEST(GraphCache, FullCacheFallsBackToStagedExecution) {
  // Once an engine holds kMaxCachedGraphs shapes, a novel shape runs as one
  // parallel_for per stage (range jobs, no graph job). Its bytes must equal
  // a fresh engine's, which builds and replays the graph for that shape.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  const std::size_t n = 6, grid_n = n * n * n, nb = 6;
  fft::Fft3D full_fft({n, n, n});
  const auto noop = +[](void*, std::size_t) {};
  for (std::size_t count = 1; count <= fft::Fft3D::kMaxCachedGraphs; ++count) {
    const std::array<fft::Fft3D::Stage, 1> fill = {fft::Fft3D::Stage::make_hook(noop, nullptr)};
    full_fft.run_pipeline(count, fill);
  }

  std::vector<std::uint32_t> x_lines, y_lines;
  for (std::uint32_t l = 0; l < n * n; ++l) {
    if (l % 2 == 0) x_lines.push_back(l);
    if (l % 3 != 0) y_lines.push_back(l);
  }
  const std::array<fft::Fft3D::PassSpec, 3> passes = {
      fft::Fft3D::PassSpec{x_lines.data(), x_lines.size()},
      fft::Fft3D::PassSpec{y_lines.data(), y_lines.size()},
      fft::Fft3D::PassSpec{nullptr, n * n}};
  Rng rng(89);
  std::vector<Complex> init(grid_n * nb);
  for (auto& x : init) x = rng.complex_normal();

  for (std::size_t nt : {1u, 4u}) {
    exec::set_num_threads(nt);
    std::vector<Complex> a(grid_n * nb), b(grid_n * nb);
    FallbackCtx ca{init.data(), a.data(), grid_n, nb}, cb{init.data(), b.data(), grid_n, nb};
    const auto stages = [&](FallbackCtx& c) {
      return std::array<fft::Fft3D::Stage, 3>{
          fft::Fft3D::Stage::make_hook(&FallbackCtx::scale, &c, 2),
          fft::Fft3D::Stage::make_passes(-1, c.grids, passes),
          fft::Fft3D::Stage::make_join(&FallbackCtx::sum, &c, 3)};
    };
    const std::uint64_t g0 = exec::pool().graph_jobs();
    const std::uint64_t r0 = exec::pool().range_jobs();
    full_fft.run_pipeline(nb, stages(ca));
    if (nt == 4) {
      EXPECT_EQ(exec::pool().graph_jobs() - g0, 0u);
      EXPECT_GT(exec::pool().range_jobs() - r0, 0u);
    }
    fft::Fft3D({n, n, n}).run_pipeline(nb, stages(cb));
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex))) << "nt=" << nt;
    for (std::size_t j = 0; j < 3; ++j) ASSERT_EQ(ca.sums[j], cb.sums[j]) << "nt=" << nt;
  }
}

TEST(GraphCache, HamiltonianCacheKeySweep) {
  // Alternating band counts through one Hamiltonian: each block width is
  // its own pipeline graph; replaying a stale shape would transform the
  // wrong batch count. Every narrow apply at width 4 is checked against the
  // band path of the same Hamiltonian at width 1.
  ThreadGuard guard;
  ParallelReplayGuard preplay;
  ham::PlanewaveSetup setup(crystal::Crystal::silicon_supercell(1, 1, 1), 4.0, 1);
  auto species = pseudo::PseudoSpecies::silicon(true);
  ham::HamiltonianOptions opt;
  opt.hybrid.enabled = false;
  ham::Hamiltonian h(setup, species, opt);
  par::SerialComm comm;
  Rng rng(83);
  CMatrix psi3(setup.n_g(), 3);
  for (std::size_t i = 0; i < psi3.size(); ++i) psi3.data()[i] = rng.complex_normal();
  auto first_cols = [&](std::size_t nb) {
    CMatrix psi(setup.n_g(), nb);
    for (std::size_t j = 0; j < nb; ++j) std::copy_n(psi3.col(j), setup.n_g(), psi.col(j));
    return psi;
  };
  exec::set_num_threads(1);
  CMatrix ref2, ref3;
  h.apply(first_cols(2), ref2, comm);
  h.apply(first_cols(3), ref3, comm);
  exec::set_num_threads(4);
  CMatrix y;
  for (const std::size_t nb : {2u, 3u, 2u, 3u, 2u}) {
    h.apply(first_cols(nb), y, comm);
    const CMatrix& ref = nb == 2 ? ref2 : ref3;
    ASSERT_EQ(0, std::memcmp(y.data(), ref.data(), y.size() * sizeof(Complex))) << "nb=" << nb;
  }
}

TEST(Workspace, BuffersAreStableAndReused) {
  auto& ws = exec::workspace();
  auto a = ws.cbuf(exec::Slot::grid_a, 1000);
  const Complex* p0 = a.data();
  a[999] = Complex{1.0, 2.0};
  // Same slot, same or smaller size: same storage, no allocation.
  auto b = ws.cbuf(exec::Slot::grid_a, 500);
  EXPECT_EQ(b.data(), p0);
  // Growth may move, but content capacity never shrinks.
  auto c = ws.cbuf(exec::Slot::grid_a, 2000);
  EXPECT_GE(c.size(), 2000u);
  auto d = ws.cbuf(exec::Slot::grid_a, 1000);
  EXPECT_EQ(d.data(), c.data());
}

TEST(Workspace, SlotsNeverAlias) {
  auto& ws = exec::workspace();
  auto a = ws.cbuf(exec::Slot::grid_a, 64);
  auto b = ws.cbuf(exec::Slot::grid_b, 64);
  EXPECT_NE(a.data(), b.data());
  auto ra = ws.rbuf(exec::Slot::grid_a, 64);
  EXPECT_NE(static_cast<const void*>(ra.data()), static_cast<const void*>(a.data()));
}

TEST(Workspace, CmatKeepsCapacityAcrossReshape) {
  auto& ws = exec::workspace();
  CMatrix& m = ws.cmat(exec::Slot::cn_r, 100, 10);
  m(99, 9) = Complex{3.0, 0.0};
  const Complex* p0 = m.data();
  CMatrix& m2 = ws.cmat(exec::Slot::cn_r, 10, 100);  // same element count
  EXPECT_EQ(&m, &m2);
  EXPECT_EQ(m2.data(), p0);
  EXPECT_EQ(m2.rows(), 10u);
  EXPECT_EQ(m2.cols(), 100u);
}

TEST(Workspace, PerThreadIsolation) {
  auto& main_ws = exec::workspace();
  auto main_buf = main_ws.cbuf(exec::Slot::coeffs_a, 128);
  const void* other = nullptr;
  std::thread t([&] { other = exec::workspace().cbuf(exec::Slot::coeffs_a, 128).data(); });
  t.join();
  EXPECT_NE(other, static_cast<const void*>(main_buf.data()));
}

TEST(Workspace, BytesReservedGrowsMonotonically) {
  auto& ws = exec::workspace();
  const std::size_t before = ws.bytes_reserved();
  // A slot no other test in this binary touches, so the expected growth is
  // the full request regardless of suite order.
  ws.cbuf(exec::Slot::rk4_k4, 1 << 16);
  EXPECT_GE(ws.bytes_reserved(), before + (1 << 16) * sizeof(Complex));
}

}  // namespace
}  // namespace pwdft
