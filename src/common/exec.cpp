#include "common/exec.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "common/check.hpp"
#include "common/env.hpp"

namespace pwdft::exec {

namespace {

/// Set on pool workers so nested parallel_for runs inline instead of
/// deadlocking on the pool it is already executing on.
thread_local bool tl_in_worker = false;

/// Set on the thread that currently owns a parallel_for job: try_lock on a
/// mutex the thread already holds is undefined behavior, so a nested
/// parallel_for from inside the owning caller's own chunks must bail to the
/// inline path before touching job_mutex_.
thread_local bool tl_owns_job = false;

/// Set on async-lane helpers: a background task (broadcast prefetch,
/// overlapped transpose pack) must never win the fork-join pool away from
/// the main compute it is overlapping with, so its parallel_for runs
/// inline.
thread_local bool tl_in_async = false;

/// See set_graph_serial_when_oversubscribed.
std::atomic<bool> g_graph_serial_oversub{true};

}  // namespace

void set_graph_serial_when_oversubscribed(bool enabled) {
  g_graph_serial_oversub.store(enabled, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(std::size_t threads) {
  PWDFT_CHECK(threads >= 1, "ThreadPool: need at least one thread");
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& w : workers_) w.join();
  {
    std::lock_guard<std::mutex> lk(async_mutex_);
    async_stop_ = true;
  }
  async_cv_.notify_all();
  for (auto& t : async_threads_) t.join();
}

void ThreadPool::run_chunks() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= nchunks_) break;
    const std::size_t b = i * chunk_;
    const std::size_t e = std::min(n_, b + chunk_);
    try {
      fn_(ctx_, b, e);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(wake_mutex_);
        if (!job_error_) job_error_ = std::current_exception();
      }
      next_.store(nchunks_, std::memory_order_relaxed);  // stop further claims
    }
  }
}

void ThreadPool::worker_loop() {
  tl_in_worker = true;
  std::uint64_t seen = 0;
  for (;;) {
    TaskGraph* graph = nullptr;
    {
      std::unique_lock<std::mutex> lk(wake_mutex_);
      wake_cv_.wait(lk, [&] { return stop_ || (job_active_ && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      graph = graph_;
      ++in_flight_;
    }
    if (graph) {
      graph->work();
    } else {
      run_chunks();
    }
    {
      std::lock_guard<std::mutex> lk(wake_mutex_);
      --in_flight_;
    }
    idle_cv_.notify_one();
  }
}

void ThreadPool::parallel_for_raw(std::size_t n, RangeFn fn, void* ctx, std::size_t grain) {
  if (n == 0) return;
  // Inline when there is nothing to fork to, when called from inside a
  // worker (nested), or when another thread currently owns the pool
  // (concurrent ThreadComm ranks): semantics are identical either way.
  if (workers_.empty() || tl_in_worker || tl_owns_job || tl_in_async ||
      !job_mutex_.try_lock()) {
    fn(ctx, 0, n);
    return;
  }
  tl_owns_job = true;
  range_jobs_.fetch_add(1, std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    graph_ = nullptr;
    fn_ = fn;
    ctx_ = ctx;
    n_ = n;
    const std::size_t target = std::max<std::size_t>(1, n / (4 * size()));
    chunk_ = std::max(std::max<std::size_t>(1, grain), target);
    nchunks_ = (n + chunk_ - 1) / chunk_;
    next_.store(0, std::memory_order_relaxed);
    job_error_ = nullptr;
    ++generation_;
    job_active_ = true;
  }
  wake_cv_.notify_all();

  run_chunks();  // caller participates; chunk errors land in job_error_

  // When run_chunks returns, every chunk has been claimed; workers still
  // executing a claimed chunk are counted by in_flight_, and their writes
  // are published by the wake_mutex_ bracket around the decrement.
  std::exception_ptr err;
  {
    std::unique_lock<std::mutex> lk(wake_mutex_);
    idle_cv_.wait(lk, [&] { return in_flight_ == 0; });
    err = job_error_;
    job_error_ = nullptr;
    job_active_ = false;
  }
  tl_owns_job = false;
  job_mutex_.unlock();
  if (err) std::rethrow_exception(err);
}

void ThreadPool::run_graph(TaskGraph& graph, void* ctx) {
  // Same inline conditions as parallel_for_raw: with no pool available the
  // serial in-order run (id order is topological) has identical semantics.
  // A replay additionally knows its whole schedule up front, so it also
  // chooses the serial run when the pool is oversubscribed (more threads
  // than the hardware runs concurrently): forking there pays context-switch
  // and wake costs without adding real parallelism — the dominant effect
  // for the small-grid replays the graph targets. Results are identical
  // either way (docs/threading.md).
  static const std::size_t hw = std::thread::hardware_concurrency();
  const bool oversubscribed = hw != 0 && size() > hw &&
                              g_graph_serial_oversub.load(std::memory_order_relaxed);
  if (workers_.empty() || tl_in_worker || tl_owns_job || tl_in_async || oversubscribed ||
      !job_mutex_.try_lock()) {
    graph.run_serial(ctx);
    return;
  }
  tl_owns_job = true;
  graph_jobs_.fetch_add(1, std::memory_order_relaxed);
  graph.reset_replay(ctx);

  {
    std::lock_guard<std::mutex> lk(wake_mutex_);
    graph_ = &graph;
    ++generation_;
    job_active_ = true;
  }
  // The single wake of this replay — but only as many workers as the graph
  // can ever feed simultaneously (its widest level); the caller covers one
  // lane itself.
  const std::size_t wake =
      std::min(workers_.size(), graph.max_parallelism() > 0 ? graph.max_parallelism() - 1 : 0);
  if (wake >= workers_.size()) {
    wake_cv_.notify_all();
  } else {
    for (std::size_t i = 0; i < wake; ++i) wake_cv_.notify_one();
  }

  graph.work();  // caller participates; node errors land in the graph

  {
    std::unique_lock<std::mutex> lk(wake_mutex_);
    idle_cv_.wait(lk, [&] { return in_flight_ == 0; });
    graph_ = nullptr;
    job_active_ = false;
  }
  tl_owns_job = false;
  job_mutex_.unlock();
  if (std::exception_ptr err = graph.take_error()) std::rethrow_exception(err);
}

TaskGraph::NodeId TaskGraph::add_node(NodeFn fn) {
  PWDFT_CHECK(!sealed_, "TaskGraph: add_node after seal()");
  PWDFT_CHECK(fn, "TaskGraph: node callable must be non-empty");
  PWDFT_CHECK(nodes_.size() + 1 < kEmpty, "TaskGraph: too many nodes");
  nodes_.push_back(Node{std::move(fn), nullptr, 0, 0, 0, 0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

TaskGraph::NodeId TaskGraph::add_node(RawNodeFn fn, std::uint64_t payload) {
  PWDFT_CHECK(!sealed_, "TaskGraph: add_node after seal()");
  PWDFT_CHECK(fn != nullptr, "TaskGraph: raw node function must be non-null");
  PWDFT_CHECK(nodes_.size() + 1 < kEmpty, "TaskGraph: too many nodes");
  nodes_.push_back(Node{{}, fn, payload, 0, 0, 0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

TaskGraph::NodeId TaskGraph::add_gate(std::span<const NodeId> preds) {
  const NodeId gate = add_node([](void*, std::uint64_t) {}, 0);
  for (const NodeId p : preds) add_edge(p, gate);
  return gate;
}

void TaskGraph::add_edge(NodeId before, NodeId after) {
  PWDFT_CHECK(!sealed_, "TaskGraph: add_edge after seal()");
  PWDFT_CHECK(after < nodes_.size(), "TaskGraph: edge endpoint out of range");
  PWDFT_CHECK(before < after,
              "TaskGraph: edges must go from a lower to a higher node id "
              "(ids are the topological order)");
  edges_.emplace_back(before, after);
}

void TaskGraph::seal() {
  PWDFT_CHECK(!sealed_, "TaskGraph: seal() called twice");
  // Duplicate edges would double-count a dependency and leave the successor
  // waiting on a decrement that never comes.
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  const std::size_t n = nodes_.size();
  std::vector<std::uint32_t> out_count(n, 0);
  for (const auto& [b, a] : edges_) {
    ++out_count[b];
    ++nodes_[a].deps;
  }
  succ_.resize(edges_.size());
  std::uint32_t off = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i].succ_begin = off;
    nodes_[i].succ_end = off;
    off += out_count[i];
  }
  for (const auto& [b, a] : edges_) succ_[nodes_[b].succ_end++] = a;
  for (std::size_t i = 0; i < n; ++i)
    if (nodes_[i].deps == 0) roots_.push_back(static_cast<std::uint32_t>(i));
  // Widest dependency level: level(i) = 1 + max level over predecessors,
  // computable in one pass since ids are already topologically ordered.
  {
    std::vector<std::uint32_t> level(n, 0);
    for (const auto& [b, a] : edges_) level[a] = std::max(level[a], level[b] + 1);
    std::vector<std::size_t> width;
    for (std::size_t i = 0; i < n; ++i) {
      if (level[i] >= width.size()) width.resize(level[i] + 1, 0);
      max_parallelism_ = std::max(max_parallelism_, ++width[level[i]]);
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();
  if (n > 0) {
    remaining_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
    ready_ = std::make_unique<std::atomic<std::uint32_t>[]>(n);
  }
  sealed_ = true;
}

void TaskGraph::replay(void* ctx) {
  PWDFT_CHECK(sealed_, "TaskGraph: seal() before replay()");
  if (nodes_.empty()) return;
  pool().run_graph(*this, ctx);
}

void TaskGraph::reset_replay(void* ctx) {
  // Serialized by the pool's job mutex: at most one pool-backed replay of
  // any graph is in flight (serial fallback runs touch none of this state).
  const std::uint32_t n = static_cast<std::uint32_t>(nodes_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    remaining_[i].store(nodes_[i].deps, std::memory_order_relaxed);
    ready_[i].store(kEmpty, std::memory_order_relaxed);
  }
  cancel_.store(false, std::memory_order_relaxed);
  claim_.store(0, std::memory_order_relaxed);
  ctx_ = ctx;
  std::uint32_t p = 0;
  for (const std::uint32_t r : roots_) ready_[p++].store(r, std::memory_order_relaxed);
  push_.store(p, std::memory_order_relaxed);
  // Workers observe all of the above through the wake_mutex_ bracket that
  // publishes the job.
}

void TaskGraph::work() {
  const auto total = static_cast<std::uint32_t>(nodes_.size());
  for (;;) {
    const std::uint32_t slot = claim_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= total) return;
    // Every replay pushes exactly `total` entries (each node once, when its
    // counter drains), so slot < total is eventually published — its
    // publisher is a node already claimed by another thread. Spin-wait; the
    // acyclicity of the graph rules out a cycle of waiters (see the no-
    // deadlock argument in docs/threading.md). A cancelled replay (node
    // threw) stops publishing, so bail out on the flag instead.
    std::uint32_t id;
    while ((id = ready_[slot].load(std::memory_order_acquire)) == kEmpty) {
      if (cancel_.load(std::memory_order_relaxed)) return;
      std::this_thread::yield();
    }
    exec_node(id);
  }
}

void TaskGraph::exec_node(std::uint32_t id) {
  Node& nd = nodes_[id];
  if (cancel_.load(std::memory_order_relaxed)) return;  // error path: skip bodies
  try {
    invoke(nd, ctx_);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lk(error_mutex_);
      if (!error_) error_ = std::current_exception();
    }
    cancel_.store(true, std::memory_order_release);
    return;  // successors are never pushed; waiters exit via cancel_
  }
  for (std::uint32_t s = nd.succ_begin; s < nd.succ_end; ++s) {
    const std::uint32_t succ = succ_[s];
    // acq_rel: the final decrement observes every predecessor's writes and
    // the release-publish below carries them to whichever thread claims the
    // slot.
    if (remaining_[succ].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      const std::uint32_t slot = push_.fetch_add(1, std::memory_order_relaxed);
      ready_[slot].store(succ, std::memory_order_release);
    }
  }
}

void TaskGraph::run_serial(void* ctx) {
  for (Node& nd : nodes_) invoke(nd, ctx);
}

std::exception_ptr TaskGraph::take_error() {
  std::lock_guard<std::mutex> lk(error_mutex_);
  std::exception_ptr err = error_;
  error_ = nullptr;
  return err;
}

void ThreadPool::submit_async(AsyncTask& task) {
  {
    std::lock_guard<std::mutex> lk(async_mutex_);
    PWDFT_CHECK(!async_stop_, "ThreadPool: submit_async after shutdown");
    task.done = false;
    task.next = nullptr;
    (async_tail_ ? async_tail_->next : async_head_) = &task;
    async_tail_ = &task;
    ++async_pending_;
    // Every parked helper can drain exactly one pending task; tasks beyond
    // that could wait forever behind a *blocking* task (e.g. a collective
    // broadcast that needs another rank's task to run to complete), so spawn
    // a helper whenever pending tasks exceed parked helpers.
    if (async_pending_ > async_idle_) async_threads_.emplace_back([this] { async_loop(); });
  }
  async_cv_.notify_one();
}

void ThreadPool::wait_async(AsyncTask& task) {
  std::unique_lock<std::mutex> lk(async_mutex_);
  async_done_cv_.wait(lk, [&] { return task.done; });
}

void ThreadPool::async_loop() {
  tl_in_async = true;
  std::unique_lock<std::mutex> lk(async_mutex_);
  for (;;) {
    // Counted idle in the same critical section that published the previous
    // task's completion: its waiter's next submission sees this helper
    // parked and spawns no new one.
    ++async_idle_;
    async_cv_.wait(lk, [&] { return async_stop_ || async_head_ != nullptr; });
    --async_idle_;
    if (!async_head_) return;  // stop requested and drained
    AsyncTask* task = async_head_;
    async_head_ = task->next;
    if (!async_head_) async_tail_ = nullptr;
    --async_pending_;
    lk.unlock();
    task->run(*task);
    lk.lock();
    task->done = true;  // the owner may free `task` from here on
    async_done_cv_.notify_all();
  }
}

TaskGroup::~TaskGroup() {
  // Destructor path: the owner is already unwinding (or forgot to call
  // wait()); the error must not escape.
  (void)join();
}

TaskGroup::Slot& TaskGroup::next_slot() {
  PWDFT_CHECK(count_ < kMaxTasks, "TaskGroup: more than kMaxTasks tasks in flight");
  return slots_[count_];
}

void TaskGroup::submit(Slot& s) {
  ThreadPool& p = pool();
  PWDFT_CHECK(!pool_ || pool_ == &p, "TaskGroup: the engine was rebuilt with tasks in flight");
  p.submit_async(s);
  pool_ = &p;
  ++count_;
}

std::exception_ptr TaskGroup::join() {
  std::exception_ptr first;
  for (std::size_t i = 0; i < count_; ++i) {
    pool_->wait_async(slots_[i]);
    if (!first) first = slots_[i].error;
    slots_[i].error = nullptr;
  }
  count_ = 0;
  pool_ = nullptr;
  return first;
}

void TaskGroup::wait() {
  if (std::exception_ptr err = join()) std::rethrow_exception(err);
}

namespace {

std::size_t default_threads() {
  // Strict parse (common/env.hpp): PWDFT_NUM_THREADS=sixteen used to atol
  // to 0 and silently fall back to hardware concurrency.
  const long v = env::integer("PWDFT_NUM_THREADS", 0, 1, 64);
  if (v >= 1) return static_cast<std::size_t>(v);
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 16);
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
// Lock-free fast path for pool(): parallel_for is called from the hottest
// loops, so reads must not serialize on g_pool_mutex.
std::atomic<ThreadPool*> g_pool_ptr{nullptr};

}  // namespace

ThreadPool& pool() {
  if (ThreadPool* p = g_pool_ptr.load(std::memory_order_acquire)) return *p;
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(default_threads());
    g_pool_ptr.store(g_pool.get(), std::memory_order_release);
  }
  return *g_pool;
}

std::size_t num_threads() { return pool().size(); }

void set_num_threads(std::size_t n) {
  PWDFT_CHECK(n >= 1, "set_num_threads: need at least one thread");
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  g_pool.reset();  // join old workers before spawning the new pool
  g_pool = std::make_unique<ThreadPool>(n);
  g_pool_ptr.store(g_pool.get(), std::memory_order_release);
}

void reinit_after_fork() {
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  g_pool_ptr.store(nullptr, std::memory_order_release);
  // Deliberately leak instead of reset(): the destructor joins worker
  // threads, and in a fork()ed child those threads were never created — a
  // join would block forever. The leak is one pool object per child
  // process, reclaimed at _exit.
  (void)g_pool.release();
}

std::span<Complex> Workspace::cbuf(Slot s, std::size_t n) {
  auto& v = c_[static_cast<std::size_t>(s)];
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

std::span<double> Workspace::rbuf(Slot s, std::size_t n) {
  auto& v = r_[static_cast<std::size_t>(s)];
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

std::span<std::complex<float>> Workspace::fbuf(Slot s, std::size_t n) {
  auto& v = f_[static_cast<std::size_t>(s)];
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

std::span<std::size_t> Workspace::ibuf(Slot s, std::size_t n) {
  auto& v = i_[static_cast<std::size_t>(s)];
  if (v.size() < n) v.resize(n);
  return {v.data(), n};
}

CMatrix& Workspace::cmat(Slot s, std::size_t rows, std::size_t cols) {
  CMatrix& m = m_[static_cast<std::size_t>(s)];
  m.reshape(rows, cols);
  return m;
}

std::size_t Workspace::bytes_reserved() const {
  std::size_t b = 0;
  for (std::size_t i = 0; i < kSlots; ++i) {
    b += c_[i].capacity() * sizeof(Complex);
    b += r_[i].capacity() * sizeof(double);
    b += f_[i].capacity() * sizeof(std::complex<float>);
    b += i_[i].capacity() * sizeof(std::size_t);
    b += m_[i].size() * sizeof(Complex);
  }
  return b;
}

Workspace& workspace() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace pwdft::exec
