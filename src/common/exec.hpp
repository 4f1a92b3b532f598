#pragma once

/// \file exec.hpp
/// Process-wide execution engine: a persistent fork-join thread pool plus a
/// per-thread workspace arena of reusable buffers.
///
/// The paper's performance story (§3.2) is batching the O(Ne^2) Poisson-like
/// FFT solves of the Fock operator and overlapping them with communication.
/// On this CPU substrate the analogue is (a) executing batch members across a
/// persistent pool instead of a serial loop and (b) never allocating in the
/// band loops: every hot-path buffer is drawn from a thread-local arena that
/// grows monotonically and is reused across calls.
///
/// Concurrency contract (the full contract, including the determinism
/// guarantee and the fixed reduction orders used by the band loops, is
/// documented in docs/threading.md):
///   - parallel_for is a blocking fork-join: it returns after fn has covered
///     [0, n) exactly once. Chunks are claimed dynamically, but every index
///     is processed by exactly one thread running the same serial code, so
///     results are bit-identical to a serial loop whenever iterations write
///     disjoint data.
///   - parallel_for may be called concurrently from several threads (e.g.
///     multiple ThreadComm ranks sharing the process): one caller wins the
///     pool, the others run their loop inline. Nested parallel_for inside a
///     worker also runs inline. Either way the semantics are unchanged.
///   - Reductions must never accumulate in chunk-claim order (which depends
///     on scheduling): band loops write per-band or per-chunk partials into
///     disjoint buffers and reduce them in a fixed, thread-count-independent
///     order, keeping results bit-identical at any engine width.
///   - TaskGroup submits tasks to an elastic helper lane that may
///     block (collectives) without starving compute workers; used to overlap
///     communication (orbital broadcasts, wavefunction transposes) with the
///     Fock band loop (paper §3.2 step 5). A parallel_for issued from an
///     async task always runs inline: background work never wins the pool
///     away from the compute it overlaps with.
///   - workspace() returns a thread-local arena; buffers are valid until the
///     same slot is requested again on the same thread. Distinct slots never
///     alias, so nested routines are safe as long as they use their own slots.
///     A task submitted to the async lane sees the *helper thread's* arena,
///     never the submitter's.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <new>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace pwdft::exec {

class TaskGraph;

/// Persistent fork-join pool. `threads` counts the caller: a pool of size 1
/// has no workers and runs everything inline.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency including the calling thread (>= 1).
  std::size_t size() const { return workers_.size() + 1; }

  using RangeFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// Runs fn(ctx, begin, end) over a disjoint cover of [0, n). Blocking.
  /// `grain` is the minimum chunk length (tune so a chunk amortizes the
  /// dispatch cost). Allocation-free on the hot path. If a chunk throws, the
  /// first exception is rethrown on the calling thread after all threads
  /// quiesce (remaining chunks may be skipped).
  void parallel_for_raw(std::size_t n, RangeFn fn, void* ctx, std::size_t grain = 1);

  template <class F>
  void parallel_for(std::size_t n, F&& f, std::size_t grain = 1) {
    using Fn = std::remove_reference_t<F>;
    parallel_for_raw(
        n,
        [](void* ctx, std::size_t b, std::size_t e) { (*static_cast<Fn*>(ctx))(b, e); },
        const_cast<void*>(static_cast<const void*>(&f)), grain);
  }

  /// One unit of work for the async lane: an intrusive queue node owned by
  /// the submitter (exec::TaskGroup keeps a fixed array of them), so a
  /// submission allocates nothing.
  struct AsyncTask {
    void (*run)(AsyncTask&) = nullptr;  ///< the work; must not throw
    AsyncTask* next = nullptr;          ///< queue link (lane mutex)
    bool done = true;                   ///< lane mutex
  };

  /// Enqueues `task` on the pool's async lane; it must stay alive until
  /// wait_async(task) returns. Used for communication prefetch: tasks may
  /// block (e.g. on a collective) without starving the compute workers. The
  /// lane spawns a persistent helper thread whenever pending tasks outnumber
  /// parked helpers (several ThreadComm ranks may each park a blocking
  /// broadcast here at once), and helpers are cached for reuse, so the
  /// steady state spawns no threads and allocates nothing.
  void submit_async(AsyncTask& task);

  /// Blocks until `task` has run. By then the helper that ran it is parked
  /// again, so a submission right after this returns finds it idle.
  void wait_async(AsyncTask& task);

  /// Executes a sealed TaskGraph: one wake of the pool, workers claim ready
  /// nodes until the graph drains. Falls back to a serial in-order run in
  /// exactly the situations parallel_for runs inline (no workers, nested,
  /// async lane, another caller owns the pool). Normally called through
  /// TaskGraph::replay.
  void run_graph(TaskGraph& graph, void* ctx);

  /// Dispatch instrumentation: pool-backed jobs started since construction
  /// (inline/serial executions do not count). A fused operator pipeline
  /// shows up as exactly one graph job and zero range jobs per call —
  /// tests/test_exec.cpp pins the one-wake contract through these.
  std::uint64_t range_jobs() const { return range_jobs_.load(std::memory_order_relaxed); }
  std::uint64_t graph_jobs() const { return graph_jobs_.load(std::memory_order_relaxed); }

 private:
  void worker_loop();
  void async_loop();
  void run_chunks();

  // Job descriptor, mutated only under wake_mutex_ while job_active_ is
  // false; read by workers only between their in_flight_ bracket. A job is
  // either a chunked range (fn_/ctx_/n_, graph_ == nullptr) or a task-graph
  // replay (graph_ != nullptr). A chunk that throws stores the first
  // exception in job_error_ (under wake_mutex_) and stops further claims;
  // the caller rethrows it after quiescence (graph jobs store errors in the
  // graph itself).
  TaskGraph* graph_ = nullptr;
  RangeFn fn_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::size_t nchunks_ = 0;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> range_jobs_{0};
  std::atomic<std::uint64_t> graph_jobs_{0};
  std::exception_ptr job_error_;

  std::mutex job_mutex_;  ///< serializes parallel_for callers
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t generation_ = 0;
  bool job_active_ = false;
  int in_flight_ = 0;
  bool stop_ = false;

  std::vector<std::thread> workers_;

  std::vector<std::thread> async_threads_;
  std::mutex async_mutex_;
  std::condition_variable async_cv_;       ///< wakes helpers
  std::condition_variable async_done_cv_;  ///< wakes wait_async callers
  AsyncTask* async_head_ = nullptr;        ///< FIFO of pending tasks
  AsyncTask* async_tail_ = nullptr;
  std::size_t async_pending_ = 0;
  std::size_t async_idle_ = 0;  ///< helpers parked in wait
  bool async_stop_ = false;
};

/// A persistent, replayable DAG of fixed work nodes — the dispatch engine
/// for pipelines that re-execute an identical stage structure many times
/// (the batched FFT axis passes, the fused sphere<->grid transforms, and
/// the whole-operator pipelines of fft::Fft3D::run_pipeline: Hamiltonian
/// apply, density accumulation, Fock pair solves). Nodes are general
/// compute payloads, not FFT-specific: anything expressible as "serial
/// code against ctx + a fixed payload word" can be a node, including
/// interior (mid-graph) stages between FFT passes.
///
/// Motivation: a multi-stage pipeline built from parallel_for calls pays one
/// pool wake plus one full barrier per stage, every call. A TaskGraph is
/// built once (nodes + edges), sealed, and then replayed arbitrarily often:
/// each replay wakes the pool exactly once, workers claim nodes from a
/// pre-sized ready ring as their dependency counters drain, and successive
/// stages of independent chains overlap instead of meeting at global
/// barriers. Replay performs no heap allocation and no range partitioning —
/// the node layout is fixed at seal() time.
///
/// Build phase (single-threaded):
///   - add_node(fn) appends a node; ids are assigned in call order.
///   - add_edge(before, after) requires before < after, so the id order is a
///     topological order by construction (no cycles possible) and the serial
///     fallback can simply run nodes in id order.
///   - seal() freezes the graph (dedupes edges, builds the successor table,
///     allocates the replay state). After seal() the graph is immutable.
///
/// Replay:
///   - replay(ctx) executes every node exactly once, respecting edges; `ctx`
///     is passed to each node, so one graph serves many data sets.
///   - Determinism: like parallel_for, every node is the same serial code at
///     any engine width; nodes that run concurrently must write disjoint
///     data. Scheduling order varies, results do not (docs/threading.md).
///   - Re-entrancy matches parallel_for: a replay from inside a worker, from
///     the async lane, or while another thread owns the pool runs the nodes
///     serially in id order — identical results either way. Two threads may
///     replay the *same* graph concurrently (with their own ctx): at most
///     one wins the pool, the rest run serially; node callables must
///     therefore be stateless apart from ctx and thread-local workspace.
///   - A node that throws: remaining nodes may be skipped, the first
///     exception is rethrown on the replaying caller, and the graph stays
///     reusable (the next replay resets all state).
class TaskGraph {
 public:
  using NodeId = std::uint32_t;
  using NodeFn = std::function<void(void* ctx)>;
  /// Raw-pointer node form: fn(ctx, payload) with a fixed 64-bit payload
  /// frozen at build time. Avoids a std::function allocation per node —
  /// graph builders that stamp out many homogeneous nodes (per-batch hook
  /// nodes, gates) pass one static trampoline plus a packed payload
  /// (e.g. stage << 32 | batch) instead of N closures.
  using RawNodeFn = void (*)(void* ctx, std::uint64_t payload);

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Appends a node (build phase). Returns its id.
  NodeId add_node(NodeFn fn);
  /// Appends a raw-pointer node carrying `payload` (build phase).
  NodeId add_node(RawNodeFn fn, std::uint64_t payload);
  /// Appends an empty gate node depending on every id in `preds`: the
  /// all-to-all join between consecutive stages of one pipeline chain.
  NodeId add_gate(std::span<const NodeId> preds);
  /// Declares that `before` must complete before `after` starts (build
  /// phase). Requires before < after; duplicate edges are deduped at seal().
  void add_edge(NodeId before, NodeId after);
  /// Freezes the graph and allocates the replay state. Required before
  /// replay(); no further add_node/add_edge afterwards.
  void seal();
  bool sealed() const { return sealed_; }
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Width of the widest dependency level (computed at seal()): an upper
  /// bound on how many nodes can ever be runnable at once, used to cap how
  /// many workers a replay wakes.
  std::size_t max_parallelism() const { return max_parallelism_; }

  /// Executes every node once, respecting edges. Blocking; see class docs.
  void replay(void* ctx = nullptr);

 private:
  friend class ThreadPool;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  /// Resets counters/ring and publishes the roots (caller of a pool-backed
  /// replay, before waking workers).
  void reset_replay(void* ctx);
  /// Claim-execute loop run by the replaying caller and every woken worker.
  void work();
  void exec_node(std::uint32_t id);
  /// Serial fallback: runs nodes in id order (a topological order) against
  /// `ctx` without touching the shared replay state.
  void run_serial(void* ctx);
  std::exception_ptr take_error();

  struct Node {
    NodeFn fn;                     ///< closure form (empty when raw is set)
    RawNodeFn raw = nullptr;       ///< raw form: raw(ctx, payload)
    std::uint64_t payload = 0;
    std::uint32_t deps = 0;        ///< in-edge count (init value of remaining_)
    std::uint32_t succ_begin = 0;  ///< CSR range into succ_
    std::uint32_t succ_end = 0;
  };
  static void invoke(Node& nd, void* ctx) { nd.raw ? nd.raw(ctx, nd.payload) : nd.fn(ctx); }
  std::vector<Node> nodes_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;  ///< build buffer
  std::vector<std::uint32_t> succ_;
  std::vector<std::uint32_t> roots_;
  // Replay state (valid only during a pool-backed replay, which the pool's
  // job mutex serializes): remaining_ holds per-node outstanding dependency
  // counts; ready_ is a one-shot MPMC ring — every node is pushed exactly
  // once when its count drains, so capacity num_nodes() suffices, claim
  // slots are handed out by fetch_add, and a claimed-but-unpublished slot is
  // awaited by spinning (bounded: its publisher is already executing).
  std::unique_ptr<std::atomic<std::uint32_t>[]> remaining_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> ready_;
  std::atomic<std::uint32_t> push_{0};
  std::atomic<std::uint32_t> claim_{0};
  std::atomic<bool> cancel_{false};
  void* ctx_ = nullptr;
  std::exception_ptr error_;  ///< guarded by error_mutex_
  std::mutex error_mutex_;
  std::size_t max_parallelism_ = 0;
  bool sealed_ = false;
};

/// Dependency handle over tasks submitted to the engine's async lane: the
/// unit of pipelining for communication/compute overlap (paper §3.2 step 5).
/// Typical shape:
///
///   exec::TaskGroup tg;
///   tg.run([&] { transpose.band_to_g(overlap_comm, psi, psi_g, sp); });
///   ham.apply(psi, hpsi, comm);   // Fock band loop runs concurrently
///   tg.wait();                    // psi_g is ready past this point
///
/// Tasks run on the elastic async lane, so they may block (e.g. on a
/// collective) without starving the fork-join workers. wait() joins every
/// submitted task and rethrows the first stored exception; the destructor
/// joins too (discarding errors), so a TaskGroup can never leak a running
/// task past its scope. Not thread-safe: one owner thread submits and waits.
///
/// Allocation-free: each task's closure is copied into one of kMaxTasks
/// inline completion slots, which the lane queues intrusively. A closure
/// must therefore be trivially copyable (capture references, pointers and
/// scalars) and fit kTaskBytes — both checked at compile time.
class TaskGroup {
 public:
  /// Tasks one group may have in flight between two wait()s.
  static constexpr std::size_t kMaxTasks = 8;
  /// Inline closure storage per task.
  static constexpr std::size_t kTaskBytes = 96;

  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// Blocks until all tasks finish; errors are swallowed (call wait() first
  /// if you need them).
  ~TaskGroup();

  /// Submits `task` to the pool's async lane.
  template <class F>
  void run(F&& task) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_trivially_copyable_v<Fn> && sizeof(Fn) <= kTaskBytes &&
                      alignof(Fn) <= alignof(std::max_align_t),
                  "TaskGroup::run: the closure must be trivially copyable and fit kTaskBytes");
    Slot& s = next_slot();
    ::new (static_cast<void*>(s.closure)) Fn(std::forward<F>(task));
    s.run = [](ThreadPool::AsyncTask& t) {
      Slot& slot = static_cast<Slot&>(t);
      try {
        (*std::launder(reinterpret_cast<Fn*>(slot.closure)))();
      } catch (...) {
        slot.error = std::current_exception();
      }
    };
    submit(s);
  }

  /// Joins all submitted tasks, then rethrows the first exception any of
  /// them stored. Afterwards the group is empty and reusable.
  void wait();

  /// True when no submitted task is outstanding.
  bool empty() const { return count_ == 0; }

 private:
  struct Slot : ThreadPool::AsyncTask {
    alignas(std::max_align_t) unsigned char closure[kTaskBytes];
    std::exception_ptr error;  ///< what the closure threw, read at join
  };
  /// The free slot run() fills; throws when kMaxTasks are in flight.
  Slot& next_slot();
  void submit(Slot& s);
  /// Joins every submitted task; returns the first stored error.
  std::exception_ptr join();

  Slot slots_[kMaxTasks];
  std::size_t count_ = 0;
  ThreadPool* pool_ = nullptr;  ///< the lane the in-flight tasks were queued on
};

/// The process-wide engine. Created on first use with num_threads() threads.
ThreadPool& pool();

/// Current engine width. Defaults to PWDFT_NUM_THREADS if set (honored up
/// to 64), else std::thread::hardware_concurrency() clamped to [1, 16].
std::size_t num_threads();

/// Rebuilds the engine with `n` threads (>= 1). Must not be called while any
/// parallel_for or async task is in flight.
void set_num_threads(std::size_t n);

/// Drops the inherited engine in a fork()ed child. The child inherits the
/// parent's ThreadPool object but none of its worker threads, so the first
/// parallel_for would hang forever on workers that do not exist. Call this
/// immediately after fork() (par::SocketGroup does): it abandons the dead
/// pool without joining it — joining threads that never existed in this
/// process would itself hang — and the next pool() use lazily builds a
/// fresh one. Single-threaded-child use only; never call it in the parent.
void reinit_after_fork();

/// Scheduling-policy hook: when true (the default), TaskGraph::replay runs
/// serially on an oversubscribed pool (engine width > hardware
/// concurrency) instead of waking workers that have no CPU to run on.
/// Tests disable it so the parallel replay machinery is exercised — and
/// TSan-checked — even on single-core CI boxes. Never changes results.
void set_graph_serial_when_oversubscribed(bool enabled);

/// Convenience: pool().parallel_for.
template <class F>
void parallel_for(std::size_t n, F&& f, std::size_t grain = 1) {
  pool().parallel_for(n, std::forward<F>(f), grain);
}

/// parallel_for over the flattened column-major domain [0, ncols*col_len),
/// re-split at column boundaries: `f(col, r0, len)` covers rows
/// [r0, r0+len) of column `col`, with every flat index visited exactly
/// once. Centralizes the chunk/column index arithmetic so the bit-identity
/// argument of each caller rests only on its own per-element loop.
template <class F>
void parallel_for_cols(std::size_t ncols, std::size_t col_len, F&& f,
                       std::size_t grain = 4096) {
  parallel_for(
      ncols * col_len,
      [&](std::size_t b, std::size_t e) {
        std::size_t t = b;
        while (t < e) {
          const std::size_t col = t / col_len;
          const std::size_t r0 = t - col * col_len;
          const std::size_t len = std::min(col_len - r0, e - t);
          f(col, r0, len);
          t += len;
        }
      },
      grain);
}

/// Nested-split decision for hybrid band×line scheduling (docs/threading.md).
///
/// A band loop whose per-band body runs its FFTs through nested (inline)
/// parallel_for calls saturates the engine only while it has at least one
/// band per thread. When `outer_tasks` (bands, or band×batch pairs) is below
/// the engine width, the caller should switch to its line-parallel
/// formulation: either batch all bands' FFT lines into one joint
/// (band × line) parallel_for, or run the band loop serially so each nested
/// batched FFT wins the whole pool.
///
/// The decision depends on the engine width, so the two formulations MUST
/// be bit-identical (same per-line kernels, same per-element operation
/// order, same reduction trees) — enforced by tests/test_band_parallel.cpp,
/// which pins both paths against each other.
inline bool prefer_line_split(std::size_t outer_tasks) {
  return outer_tasks < pool().size();
}

/// Named arena slots. Each (thread, slot, element-type) triple is an
/// independent monotonically-growing buffer; two routines may only share a
/// slot if their lifetimes never overlap on one thread.
enum class Slot : std::size_t {
  // fft: scratch and work of one FftPlan1D::execute_lines run inside
  // Fft3D axis passes (16 lines x line length each).
  fft_line,
  fft_work,
  // grid/ham: dense- and wfc-grid scratch.
  grid_a,
  grid_b,
  coeffs_a,
  // Density band loop: chunk-indexed partial accumulators (deterministic
  // reduction, see docs/threading.md) and the batched real-space grids of
  // the hybrid band×line path.
  rho_part,
  rho_grids,
  // Hamiltonian::apply hybrid band×line path: batched dense-grid blocks.
  ham_grids,
  ham_vlocs,
  ham_coeffs,
  // Fock operator band loop.
  fock_pair,
  fock_fetch,  ///< 2x band_window ping-pong broadcast buffers
  fock_wire,
  fock_coeffs,
  fock_psi_real,
  fock_acc,
  fock_win,     ///< per-band window contributions before the ordered reduction
  fock_mirror,  ///< self-apply: per-task mirrored-term slices of a window
  // Wavefunction transpose pack/unpack wire buffers and the byte
  // counts/displacements of the Alltoallv (ibuf).
  trans_send,
  trans_recv,
  trans_plan,
  // Per-band norm/scalar slots (LOBPCG residuals, CN residual norms).
  band_norms,
  // LOBPCG per-iteration blocks.
  lob_r,
  lob_w,
  lob_s,
  lob_hs,
  lob_hw,
  lob_xnew,
  lob_hxnew,
  // PT-CN / CN propagators.
  pt_ga,
  pt_gb,
  pt_gc,
  cn_r,
  // ACE compressed exchange apply (ham/ace.cpp): G-layout psi block, the
  // Xi^H psi projection matrix, the -Xi P contribution, and its band-layout
  // image. Dedicated slots — AceOperator::apply_add runs inside
  // Hamiltonian::apply while pt_*/ham_* blocks may be live.
  ace_ga,
  ace_gb,
  ace_p,
  ace_band,
  mix_f,
  // AndersonMixer::mix internals (Gram system + real-vector staging), so a
  // whole SCF iteration stays allocation-free (tests/test_alloc_free.cpp).
  mix_gram,
  mix_rhs,
  mix_real,
  // RK4 stages.
  rk4_k1,
  rk4_k2,
  rk4_k3,
  rk4_k4,
  rk4_stage,
  count
};

/// Per-thread arena. Buffers grow and are never shrunk, so steady-state use
/// performs zero heap allocations.
class Workspace {
 public:
  /// Complex buffer of exactly n elements (contents unspecified).
  std::span<Complex> cbuf(Slot s, std::size_t n);
  /// double buffer of exactly n elements (contents unspecified).
  std::span<double> rbuf(Slot s, std::size_t n);
  /// complex<float> buffer (single-precision comm wire, paper §3.2 step 4).
  std::span<std::complex<float>> fbuf(Slot s, std::size_t n);
  /// size_t buffer (Alltoallv counts and displacements).
  std::span<std::size_t> ibuf(Slot s, std::size_t n);
  /// Matrix reshaped to rows x cols, reusing capacity. Only elements the
  /// caller writes are meaningful.
  CMatrix& cmat(Slot s, std::size_t rows, std::size_t cols);

  /// Total bytes currently reserved by this arena (instrumentation).
  std::size_t bytes_reserved() const;

 private:
  static constexpr std::size_t kSlots = static_cast<std::size_t>(Slot::count);
  std::vector<Complex> c_[kSlots];
  std::vector<double> r_[kSlots];
  std::vector<std::complex<float>> f_[kSlots];
  std::vector<std::size_t> i_[kSlots];
  CMatrix m_[kSlots];
};

/// The calling thread's arena.
Workspace& workspace();

}  // namespace pwdft::exec
