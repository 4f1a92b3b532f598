#include "fft/fft3d.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/exec.hpp"

namespace pwdft::fft {

namespace {

/// Per-stage replay state: the pointers that vary per call while the graph
/// shape stays cached. Slot s of the array backs stage s of the pipeline.
struct StageState {
  Fft3D::BatchHook hook;
  void* user;
  Complex* data;
};

/// Replay argument block shared by every node of a cached graph.
struct ReplayCtx {
  const StageState* st;
};

/// Shared trampoline of every hook/join node: payload packs
/// (stage << 32 | batch-or-job), the per-call user pointer comes from the
/// replay context. One static function for all hook nodes keeps the graph
/// build allocation-light (exec::TaskGraph raw nodes).
void run_hook_node(void* ctx, std::uint64_t payload) {
  const auto* c = static_cast<const ReplayCtx*>(ctx);
  const std::size_t si = static_cast<std::size_t>(payload >> 32);
  const std::size_t b = static_cast<std::size_t>(payload & 0xffffffffu);
  c->st[si].hook(c->st[si].user, b);
}

std::uint64_t fnv1a(const std::uint32_t* p, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fixed node sizing: at least the axis_pass_many grain's worth of line data
/// per node (so a node amortizes its scheduling cost) and at most 32 nodes
/// per pass per batch member. Width-independent — the graph shape affects
/// only scheduling, never results.
constexpr std::size_t kMaxNodesPerPass = 32;

/// Pipelines are short stage sequences (the longest in the tree — the fused
/// Hamiltonian apply — has 6); the replay state array is stack-sized to it.
constexpr std::size_t kMaxPipelineStages = 8;

/// Lines per FftPlan1D::execute_lines run in run_lines. A fixed constant,
/// not derived from the engine width or the grid: a line's bits never
/// depend on its run, so where runs are cut only changes the speed. A run's
/// work and scratch (2 x 16 lines) stay in L1 for lines up to ~60 points.
constexpr std::size_t kRunLines = 16;

}  // namespace

/// One cached replay shape: the per-stage key fields plus owned copies of
/// the line masks (the graph's nodes point into them, so the cache never
/// dangles if the caller's mask storage goes away).
struct Fft3D::CachedGraph {
  struct StageKey {
    Stage::Kind kind = Stage::Kind::kHook;
    BatchHook hook = nullptr;
    std::size_t chain = 0;
    std::size_t njobs = 0;
    int sign = 0;
    std::array<bool, 3> masked{};
    std::array<std::size_t, 3> nlines{};
    std::array<std::uint64_t, 3> hash{};
    std::array<std::vector<std::uint32_t>, 3> lines;
  };
  std::size_t count = 0;
  std::vector<StageKey> stages;
  exec::TaskGraph graph;
};

Fft3D::Fft3D(std::array<std::size_t, 3> dims)
    : dims_(dims), plan_x_(dims[0]), plan_y_(dims[1]), plan_z_(dims[2]) {}

Fft3D::~Fft3D() = default;

std::shared_ptr<Fft3D> shared_engine(std::array<std::size_t, 3> dims) {
  static std::mutex mu;
  // Intentionally leaked: engines may still be referenced by objects whose
  // destruction order at exit is unknowable.
  static auto* cache = new std::vector<std::shared_ptr<Fft3D>>();
  std::lock_guard<std::mutex> lock(mu);
  for (const auto& engine : *cache) {
    if (engine->dims() == dims) return engine;
  }
  auto engine = std::make_shared<Fft3D>(dims);
  cache->push_back(engine);
  return engine;
}

void Fft3D::run_lines(Complex* data, int axis, int sign, const std::uint32_t* lines,
                      std::size_t li0, std::size_t li1, std::size_t batch) const {
  const std::size_t n0 = dims_[0], n1 = dims_[1];
  const FftPlan1D& plan = axis == 0 ? plan_x_ : axis == 1 ? plan_y_ : plan_z_;
  const std::size_t stride = axis == 0 ? 1 : axis == 1 ? n0 : n0 * n1;
  // Adjacent line ids are n0 apart on axis 0 (l = y + n1*z) and adjacent
  // in memory on axes 1 (l = x + n0*z, within one z-plane) and 2
  // (l = x + n0*y).
  const std::size_t dist = axis == 0 ? n0 : 1;
  auto& ws = exec::workspace();
  Complex* scratch = ws.cbuf(exec::Slot::fft_line, plan.workspace_size(kRunLines)).data();
  Complex* work = ws.cbuf(exec::Slot::fft_work, plan.workspace_size(kRunLines)).data();
  Complex* gbase = data + batch * size();
  for (std::size_t li = li0; li < li1;) {
    const std::size_t l = lines ? lines[li] : li;
    // A run is up to kRunLines consecutive line ids; on axis 1 it ends at
    // the z-plane, where the next id jumps in memory.
    std::size_t cap = std::min(kRunLines, li1 - li);
    if (axis == 1) cap = std::min(cap, n0 - l % n0);
    std::size_t count = 1;
    while (count < cap && (!lines || lines[li + count] == l + count)) ++count;
    Complex* base;
    if (axis == 0) {
      base = gbase + l * n0;  // l = y + n1*z
    } else if (axis == 1) {
      const std::size_t x = l % n0, z = l / n0;
      base = gbase + x + n0 * n1 * z;
    } else {
      base = gbase + l;  // l = x + n0*y
    }
    plan.execute_lines(base, stride, dist, count, base, stride, dist, work, scratch, sign);
    li += count;
  }
}

void Fft3D::axis_pass_many(Complex* data, std::size_t count, int axis, int sign,
                           const std::uint32_t* lines, std::size_t nlines) const {
  const std::size_t len = dims_[axis];
  const std::size_t total = count * nlines;
  if (total == 0 || len == 0) return;

  // Keep each chunk >= ~32 KiB of line data so dispatch stays negligible.
  const std::size_t grain = std::max<std::size_t>(1, 2048 / len);

  exec::parallel_for(
      total,
      [&](std::size_t b, std::size_t e) {
        // Split the flattened (batch, line) range at batch boundaries; each
        // maximal run goes through the same serial kernel as a graph node.
        std::size_t t = b;
        while (t < e) {
          const std::size_t batch = t / nlines;
          const std::size_t li = t - batch * nlines;
          const std::size_t run = std::min(nlines - li, e - t);
          run_lines(data, axis, sign, lines, li, li + run, batch);
          t += run;
        }
      },
      grain);
}

namespace {

/// Shape validation of run_pipeline (the replay and the cache-full fallback
/// see the same contract).
void validate_stages(std::span<const Fft3D::Stage> stages) {
  PWDFT_CHECK(!stages.empty() && stages.size() <= kMaxPipelineStages,
              "run_pipeline: need 1..8 stages");
  bool joined = false;
  for (const auto& s : stages) {
    switch (s.kind) {
      case Fft3D::Stage::Kind::kHook:
        PWDFT_CHECK(s.hook != nullptr, "run_pipeline: hook stage needs a hook");
        PWDFT_CHECK(!joined, "run_pipeline: per-batch stages cannot follow a join");
        break;
      case Fft3D::Stage::Kind::kPasses:
        PWDFT_CHECK(s.data != nullptr, "run_pipeline: pass stage needs data");
        PWDFT_CHECK(!joined, "run_pipeline: per-batch stages cannot follow a join");
        break;
      case Fft3D::Stage::Kind::kJoin:
        PWDFT_CHECK(s.hook != nullptr && s.njobs > 0,
                    "run_pipeline: join stage needs a hook and njobs > 0");
        joined = true;
        break;
    }
  }
}

}  // namespace

Fft3D::CachedGraph* Fft3D::graph_for(std::size_t count,
                                     std::span<const Stage> stages) const {
  // Hash the line masks outside the lock; contents are compared exactly on
  // a hash match (a 64-bit collision would otherwise replay the wrong
  // lines).
  std::array<std::array<std::uint64_t, 3>, kMaxPipelineStages> hash{};
  for (std::size_t si = 0; si < stages.size(); ++si)
    if (stages[si].kind == Stage::Kind::kPasses)
      for (int a = 0; a < 3; ++a)
        hash[si][a] = stages[si].passes[a].lines
                          ? fnv1a(stages[si].passes[a].lines, stages[si].passes[a].nlines)
                          : 0;

  std::lock_guard<std::mutex> lk(cache_mutex_);
  for (const auto& cg : cache_) {
    if (cg->count != count || cg->stages.size() != stages.size()) continue;
    bool same = true;
    for (std::size_t si = 0; same && si < stages.size(); ++si) {
      const auto& k = cg->stages[si];
      const auto& s = stages[si];
      same = k.kind == s.kind && k.hook == s.hook && k.chain == s.chain &&
             k.njobs == s.njobs && k.sign == s.sign;
      if (!same || s.kind != Stage::Kind::kPasses) continue;
      for (int a = 0; same && a < 3; ++a) {
        same = k.masked[a] == (s.passes[a].lines != nullptr) &&
               k.nlines[a] == s.passes[a].nlines && k.hash[a] == hash[si][a];
        if (same && s.passes[a].lines)
          same = std::equal(k.lines[a].begin(), k.lines[a].end(), s.passes[a].lines);
      }
    }
    if (same) return cg.get();
  }
  if (cache_.size() >= kMaxCachedGraphs) return nullptr;

  auto cg = std::make_unique<CachedGraph>();
  cg->count = count;
  cg->stages.resize(stages.size());
  for (std::size_t si = 0; si < stages.size(); ++si) {
    auto& k = cg->stages[si];
    const auto& s = stages[si];
    k.kind = s.kind;
    k.hook = s.hook;
    k.chain = s.chain;
    k.njobs = s.njobs;
    k.sign = s.sign;
    if (s.kind == Stage::Kind::kPasses)
      for (int a = 0; a < 3; ++a) {
        k.masked[a] = s.passes[a].lines != nullptr;
        k.nlines[a] = s.passes[a].nlines;
        k.hash[a] = hash[si][a];
        if (s.passes[a].lines)
          k.lines[a].assign(s.passes[a].lines, s.passes[a].lines + s.passes[a].nlines);
      }
  }

  // Per-batch chains: each member threads through the per-batch stages in
  // order. Pass stages expand to line-chunk nodes bracketed by gates (the
  // all-to-all dependency between consecutive passes of one member — a pass
  // reads every line the previous pass wrote); hook stages are one raw node
  // each, optionally chained to the same hook of the previous member in its
  // `chain` run (the fixed-order-reduction device). Members share no edges
  // otherwise, so independent batches pipeline through the stages freely.
  // Trailing join stages gate on every member's tail and then fan out their
  // job nodes.
  exec::TaskGraph& g = cg->graph;
  std::vector<exec::TaskGraph::NodeId> tail(count);
  std::vector<char> has_tail(count, 0);
  // Last batch member's hook node per stage (valid while building member b
  // for members < b): the chain predecessor.
  std::array<exec::TaskGraph::NodeId, kMaxPipelineStages> prev_hook{};
  std::vector<exec::TaskGraph::NodeId> chunk_ids;
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t si = 0; si < stages.size(); ++si) {
      const auto& k = cg->stages[si];
      if (k.kind == Stage::Kind::kJoin) continue;  // built after the loop
      if (k.kind == Stage::Kind::kHook) {
        const auto id = g.add_node(&run_hook_node, (static_cast<std::uint64_t>(si) << 32) | b);
        if (has_tail[b]) g.add_edge(tail[b], id);
        if (k.chain > 1 && b % k.chain != 0) g.add_edge(prev_hook[si], id);
        prev_hook[si] = id;
        tail[b] = id;
        has_tail[b] = 1;
        continue;
      }
      for (int a = 0; a < 3; ++a) {
        const std::size_t nlines = k.nlines[a];
        const std::uint32_t* lines = k.masked[a] ? k.lines[a].data() : nullptr;
        const int sign = k.sign;
        const std::size_t len = dims_[a];
        if (nlines == 0 || len == 0) continue;
        const std::size_t min_lines = std::max<std::size_t>(1, 2048 / len);
        const std::size_t per =
            std::max(min_lines, (nlines + kMaxNodesPerPass - 1) / kMaxNodesPerPass);
        chunk_ids.clear();
        for (std::size_t l0 = 0; l0 < nlines; l0 += per) {
          const std::size_t l1 = std::min(nlines, l0 + per);
          const exec::TaskGraph::NodeId id =
              g.add_node([this, si, a, sign, lines, l0, l1, b](void* p) {
                run_lines(static_cast<const ReplayCtx*>(p)->st[si].data, a, sign, lines,
                          l0, l1, b);
              });
          if (has_tail[b]) g.add_edge(tail[b], id);
          chunk_ids.push_back(id);
        }
        tail[b] = chunk_ids.size() == 1 ? chunk_ids[0] : g.add_gate(chunk_ids);
        has_tail[b] = 1;
      }
    }
  }
  // Trailing joins: a gate collects the previous level (all member tails,
  // or the previous join's jobs), then the job nodes fan out from it.
  std::vector<exec::TaskGraph::NodeId> level;
  for (std::size_t b = 0; b < count; ++b)
    if (has_tail[b]) level.push_back(tail[b]);
  for (std::size_t si = 0; si < stages.size(); ++si) {
    const auto& k = cg->stages[si];
    if (k.kind != Stage::Kind::kJoin) continue;
    const exec::TaskGraph::NodeId gate =
        level.size() == 1 ? level[0] : g.add_gate(level);
    level.clear();
    for (std::size_t j = 0; j < k.njobs; ++j) {
      const auto id = g.add_node(&run_hook_node, (static_cast<std::uint64_t>(si) << 32) | j);
      g.add_edge(gate, id);
      level.push_back(id);
    }
  }
  g.seal();
  cache_.push_back(std::move(cg));
  return cache_.back().get();
}

void Fft3D::run_stages(std::size_t count, std::span<const Stage> stages) const {
  // One batched dispatch per stage; every hook call and per-line kernel is
  // the same serial code as the corresponding graph node, so this fallback
  // is bit-identical to the replay.
  for (const Stage& s : stages) {
    switch (s.kind) {
      case Stage::Kind::kHook:
        if (s.chain > 1) {
          // Chained hooks: parallel over runs, serial in batch order inside
          // a run (the same order the graph edges enforce).
          const std::size_t ngroups = (count + s.chain - 1) / s.chain;
          exec::parallel_for(ngroups, [&](std::size_t gb, std::size_t ge) {
            for (std::size_t gi = gb; gi < ge; ++gi) {
              const std::size_t b1 = std::min(count, (gi + 1) * s.chain);
              for (std::size_t b = gi * s.chain; b < b1; ++b) s.hook(s.user, b);
            }
          });
        } else {
          exec::parallel_for(count, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) s.hook(s.user, i);
          });
        }
        break;
      case Stage::Kind::kPasses:
        for (int a = 0; a < 3; ++a)
          axis_pass_many(s.data, count, a, s.sign, s.passes[a].lines, s.passes[a].nlines);
        break;
      case Stage::Kind::kJoin:
        exec::parallel_for(s.njobs, [&](std::size_t b, std::size_t e) {
          for (std::size_t j = b; j < e; ++j) s.hook(s.user, j);
        });
        break;
    }
  }
}

void Fft3D::run_pipeline(std::size_t count, std::span<const Stage> stages) const {
  if (count == 0) return;
  validate_stages(stages);
  if (CachedGraph* cg = graph_for(count, stages)) {
    std::array<StageState, kMaxPipelineStages> st;
    for (std::size_t si = 0; si < stages.size(); ++si)
      st[si] = StageState{stages[si].hook, stages[si].user, stages[si].data};
    ReplayCtx ctx{st.data()};
    cg->graph.replay(&ctx);
    return;
  }
  run_stages(count, stages);  // cache full: staged execution, identical results
}

void Fft3D::dispatch(Complex* data, std::size_t count, int sign,
                     const std::array<PassSpec, 3>& passes, BatchHook prologue,
                     BatchHook epilogue, void* user) const {
  // The historical hooked-transform shape as a 1–3 stage pipeline.
  std::array<Stage, 3> st;
  std::size_t n = 0;
  if (prologue) st[n++] = Stage::make_hook(prologue, user);
  st[n++] = Stage::make_passes(sign, data, passes);
  if (epilogue) st[n++] = Stage::make_hook(epilogue, user);
  run_pipeline(count, {st.data(), n});
}

void Fft3D::transform_many(Complex* data, std::size_t count, int sign) const {
  const std::size_t n0 = dims_[0], n1 = dims_[1], n2 = dims_[2];
  dispatch(data, count, sign,
           {PassSpec{nullptr, n1 * n2}, PassSpec{nullptr, n0 * n2}, PassSpec{nullptr, n0 * n1}},
           nullptr, nullptr, nullptr);
}

void Fft3D::forward(Complex* data) const { transform_many(data, 1, -1); }

void Fft3D::inverse(Complex* data) const { transform_many(data, 1, +1); }

void Fft3D::inverse_scaled(Complex* data) const {
  transform_many(data, 1, +1);
  const double inv = 1.0 / static_cast<double>(size());
  const std::size_t n = size();
  exec::parallel_for(
      n, [&](std::size_t b, std::size_t e) { for (std::size_t i = b; i < e; ++i) data[i] *= inv; },
      4096);
}

void Fft3D::forward_many(Complex* data, std::size_t count) const {
  transform_many(data, count, -1);
}

void Fft3D::inverse_many(Complex* data, std::size_t count) const {
  transform_many(data, count, +1);
}

void Fft3D::inverse_many_active(Complex* data, std::size_t count,
                                std::span<const std::uint32_t> x_lines,
                                std::span<const std::uint32_t> y_lines,
                                BatchHook prologue, void* user) const {
  const std::size_t n0 = dims_[0], n1 = dims_[1];
  dispatch(data, count, +1,
           {PassSpec{x_lines.data(), x_lines.size()}, PassSpec{y_lines.data(), y_lines.size()},
            PassSpec{nullptr, n0 * n1}},
           prologue, nullptr, user);
}

void Fft3D::forward_many_active(Complex* data, std::size_t count,
                                std::span<const std::uint32_t> y_lines,
                                std::span<const std::uint32_t> z_lines,
                                BatchHook epilogue, void* user) const {
  const std::size_t n1 = dims_[1], n2 = dims_[2];
  dispatch(data, count, -1,
           {PassSpec{nullptr, n1 * n2}, PassSpec{y_lines.data(), y_lines.size()},
            PassSpec{z_lines.data(), z_lines.size()}},
           nullptr, epilogue, user);
}

}  // namespace pwdft::fft
