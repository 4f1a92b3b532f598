#pragma once

/// \file fft3d.hpp
/// 3-D complex FFT on a dense grid, with a batched, thread-parallel
/// interface and a whole-operator pipeline engine.
///
/// The batched entry points mirror the "batched cuFFT" optimization of the
/// paper (§3.2, step 2): the Fock exchange operator solves many Poisson-like
/// equations per band and submits them as one batch. On this CPU substrate a
/// batch is executed across the process-wide exec engine, which captures the
/// same plan-reuse/latency-amortization structure and adds thread
/// parallelism.
///
/// Dispatch: every batched transform replays a persistent exec::TaskGraph
/// cached per replay shape, built lazily on first use: one pool wake per
/// call, per-batch chains with no global inter-stage barrier (batch b can
/// run its axis-2 pass while batch b' is still in axis 0). This removes the
/// dominant dispatch overhead for small grids (< 32³) — the per-band
/// pair-solve sizes the hybrid Fock loop lives in. An engine caches at most
/// kMaxCachedGraphs shapes; a novel shape beyond that runs as one
/// exec::parallel_for per stage instead (run_stages), bit-identical to the
/// replay.
///
/// Whole-operator pipelines (run_pipeline): generalizing the per-batch
/// prologue/epilogue hooks of PR 4, a caller describes its full operator as
/// a sequence of stages — per-batch compute hooks, FFT pass sets, and
/// trailing cross-batch join stages — and the whole pipeline becomes ONE
/// cached graph replay. The narrow-band `ham::Hamiltonian::apply`
/// (scatter → inverse passes → V·ψ+nonlocal → forward passes → gather →
/// kinetic+add), `ham::compute_density` (scatter → inverse passes → |ψ|²
/// chunk accumulation → ordered reduction join) and the Fock window loop's
/// batched pair solves (pair multiply → forward → kernel multiply →
/// inverse → write-out) are built this way, so a whole operator application
/// costs one pool wake instead of one per stage.
///
/// The engine is stateless apart from the internal graph cache (guarded by
/// a mutex; replay itself is lock-free): per-run work and scratch come from
/// the calling thread's workspace arena (FftPlan1D::execute_lines is
/// thread-safe), so one Fft3D instance may be used concurrently from any
/// number of threads (e.g. several ThreadComm ranks) and all transform
/// methods are const.
///
/// Determinism: every 1-D line is computed by exactly one thread running the
/// identical serial kernel (Fft3D::run_lines, shared by the replay and the
/// cache-full fallback), so results are bit-identical to the serial loop at
/// any thread count. run_lines hands FftPlan1D::execute_lines runs of up to
/// 16 adjacent lines of its range, which the kernel writes in place in the
/// grid. A line's bits never depend on its run, so the replay's graph nodes
/// and the fallback's parallel_for grains may cut runs at different places.
///
/// Grid layout: linear index i = x + n0*(y + n1*z), x fastest.

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fft/fft_plan.hpp"

namespace pwdft::fft {

/// The one formulation of the narrow-band operators: Fft3D::run_pipeline.
/// Kept only as the type of HamiltonianOptions::op_pipeline, which
/// perfbench/ptbench.cpp still passes to ham::compute_density; nothing
/// branches on it. Delete with that call form (ROADMAP item 1).
enum class PipelineMode { kFused };

class Fft3D {
 public:
  /// Graph-cache capacity: the number of distinct replay shapes one engine
  /// builds before further novel shapes fall back to run_stages.
  static constexpr std::size_t kMaxCachedGraphs = 64;

  explicit Fft3D(std::array<std::size_t, 3> dims);
  ~Fft3D();
  Fft3D(const Fft3D&) = delete;
  Fft3D& operator=(const Fft3D&) = delete;

  const std::array<std::size_t, 3>& dims() const { return dims_; }
  /// Total number of grid points.
  std::size_t size() const { return dims_[0] * dims_[1] * dims_[2]; }

  /// Per-batch stage hook: runs once per batch member (or once per join
  /// job). In a replay the hook is a graph node wired into the member's
  /// stage chain; in the cache-full fallback it runs as its own
  /// batch-parallel stage. Must write only batch `b`'s data and be safe to
  /// run concurrently across batches (except where Stage::chain serializes
  /// it). A plain function pointer so the graph cache can key on hook
  /// identity; per-call state arrives through the stage's `user`.
  using BatchHook = void (*)(void* user, std::size_t batch);

  /// One axis-pass line selection: lines == nullptr means all nlines lines.
  struct PassSpec {
    const std::uint32_t* lines = nullptr;
    std::size_t nlines = 0;
  };

  /// One stage of a whole-operator pipeline (run_pipeline). The *shape*
  /// fields (kind, hook identity, chain, njobs, sign, line-mask contents)
  /// key the graph cache; the *state* fields (`user`, `data`) vary freely
  /// per call against the same cached graph.
  struct Stage {
    enum class Kind { kHook, kPasses, kJoin };
    Kind kind = Kind::kHook;
    // kHook / kJoin: the node body and its per-call state.
    BatchHook hook = nullptr;
    void* user = nullptr;
    /// kHook only: when > 1, consecutive runs of `chain` batch members
    /// execute their hooks serially in batch order (batch b waits for
    /// b-1 unless b is a run boundary). The fixed-order-reduction device:
    /// ham::compute_density chains the |ψ|² accumulation of each density
    /// chunk's bands so the summation order never depends on scheduling.
    std::size_t chain = 0;
    /// kJoin only: number of job nodes; the hook is called as
    /// hook(user, job) for job in [0, njobs) after EVERY batch member has
    /// finished all preceding stages. Join stages must be trailing and
    /// run after any earlier join stage completes.
    std::size_t njobs = 0;
    // kPasses: one batched 3-D transform (three axis passes) over the
    // contiguous grids at `data`, masked per axis by `passes`.
    int sign = 0;
    Complex* data = nullptr;
    std::array<PassSpec, 3> passes{};

    static Stage make_hook(BatchHook h, void* user, std::size_t chain = 0) {
      Stage s;
      s.kind = Kind::kHook;
      s.hook = h;
      s.user = user;
      s.chain = chain;
      return s;
    }
    static Stage make_join(BatchHook h, void* user, std::size_t njobs) {
      Stage s;
      s.kind = Kind::kJoin;
      s.hook = h;
      s.user = user;
      s.njobs = njobs;
      return s;
    }
    static Stage make_passes(int sign, Complex* data, const std::array<PassSpec, 3>& p) {
      Stage s;
      s.kind = Kind::kPasses;
      s.sign = sign;
      s.data = data;
      s.passes = p;
      return s;
    }
  };

  /// A pass stage covering every line of all three axes (the unmasked
  /// transform of this engine's grid): the pipeline form of
  /// forward_many/inverse_many. Keeps the per-axis line-count layout in
  /// one place — callers must not hand-build the PassSpec triple.
  Stage full_passes_stage(int sign, Complex* data) const {
    return Stage::make_passes(sign, data,
                              {PassSpec{nullptr, dims_[1] * dims_[2]},
                               PassSpec{nullptr, dims_[0] * dims_[2]},
                               PassSpec{nullptr, dims_[0] * dims_[1]}});
  }

  /// Executes a whole-operator pipeline over `count` batch members (at most
  /// 8 stages): one replay of a graph cached per (count, stage-shape
  /// sequence) — one pool wake for the whole operator, batch members
  /// pipelining through the stages independently. With the cache full, a
  /// novel shape runs as one batched dispatch per stage; both execute the
  /// identical serial code per (stage, batch) and are bit-identical.
  void run_pipeline(std::size_t count, std::span<const Stage> stages) const;

  /// In-place unnormalized transforms. inverse(forward(x)) == size()*x.
  void forward(Complex* data) const;
  void inverse(Complex* data) const;

  /// Inverse followed by division by size(): a true inverse of forward().
  void inverse_scaled(Complex* data) const;

  /// Batched transforms over `count` contiguous grids.
  void forward_many(Complex* data, std::size_t count) const;
  void inverse_many(Complex* data, std::size_t count) const;

  /// Sphere-masked variants (the fused sphere<->grid path, see
  /// grid/transforms.hpp). All three axes run masked.
  ///
  /// inverse_many_active: the axis-0 pass runs only over `x_lines` (line
  /// l = y + n1*z) and the axis-1 pass only over `y_lines` (line
  /// l = x + n0*z). All other x-lines MUST already be zero (a freshly
  /// scattered sphere guarantees this) and `y_lines` must cover every
  /// z-plane that carries an active x-line; skipped axis-1 lines are then
  /// all-zero and their transform is the identity, making the result
  /// bit-identical to inverse_many while skipping the empty lines. An
  /// optional `prologue` hook (e.g. the per-batch sphere scatter) runs
  /// before each batch member's passes.
  void inverse_many_active(Complex* data, std::size_t count,
                           std::span<const std::uint32_t> x_lines,
                           std::span<const std::uint32_t> y_lines,
                           BatchHook prologue = nullptr, void* user = nullptr) const;
  /// forward_many_active: the axis-0 pass runs in full, the axis-1 pass
  /// only over `y_lines` (line l = x + n0*z) and the final axis-2 pass only
  /// over `z_lines` (line l = x + n0*y). `y_lines` must cover every x that
  /// appears in `z_lines` (SphereMap::y_lines_fwd does). Grid values on
  /// skipped axis-1 and axis-2 lines are left unspecified; values on the
  /// listed z-lines are bit-identical to forward_many. Use when only sphere
  /// points are gathered afterwards. An optional `epilogue` hook (e.g. the
  /// per-batch sphere gather) runs after each batch member's passes.
  void forward_many_active(Complex* data, std::size_t count,
                           std::span<const std::uint32_t> y_lines,
                           std::span<const std::uint32_t> z_lines,
                           BatchHook epilogue = nullptr, void* user = nullptr) const;

 private:
  struct CachedGraph;

  /// The serial kernel of every pass node and of run_stages: transforms
  /// lines [li0, li1) of `axis` for batch member `batch`, in place, as runs
  /// of up to 16 consecutive line ids (an axis-1 run ends at a z-plane).
  void run_lines(Complex* data, int axis, int sign, const std::uint32_t* lines,
                 std::size_t li0, std::size_t li1, std::size_t batch) const;
  /// One axis pass over all batch members as one parallel_for (run_stages).
  void axis_pass_many(Complex* data, std::size_t count, int axis, int sign,
                      const std::uint32_t* lines, std::size_t nlines) const;
  /// Runs the three passes (+ optional hooks) as a 1–3 stage pipeline.
  void dispatch(Complex* data, std::size_t count, int sign,
                const std::array<PassSpec, 3>& passes, BatchHook prologue,
                BatchHook epilogue, void* user) const;
  void transform_many(Complex* data, std::size_t count, int sign) const;
  /// Executes the stage list as one batched dispatch per stage (the
  /// cache-full fallback of run_pipeline).
  void run_stages(std::size_t count, std::span<const Stage> stages) const;
  /// Looks up or lazily builds the cached graph for a pipeline shape;
  /// returns nullptr when the cache is full (caller falls back to
  /// run_stages).
  CachedGraph* graph_for(std::size_t count, std::span<const Stage> stages) const;

  std::array<std::size_t, 3> dims_;
  FftPlan1D plan_x_, plan_y_, plan_z_;
  /// Lazily built replay graphs, keyed by (batch count, per-stage shape:
  /// kind + hook identity + chain/njobs + sign + line-mask content).
  /// Entries are never evicted and their addresses are stable, so a replay
  /// needs the mutex only for the lookup.
  mutable std::mutex cache_mutex_;
  mutable std::vector<std::unique_ptr<CachedGraph>> cache_;
};

/// Process-wide engine cache: returns the one Fft3D for `dims`, constructing
/// it on first request. Since an Fft3D is safe for concurrent use and its
/// graph cache only grows, sharing one engine per grid shape means
/// co-resident simulations (the serve::JobEngine tenants, or several
/// Simulations in one process) reuse each other's warmed-up replay graphs
/// instead of each rebuilding them. Entries live for the life of the
/// process.
std::shared_ptr<Fft3D> shared_engine(std::array<std::size_t, 3> dims);

}  // namespace pwdft::fft
