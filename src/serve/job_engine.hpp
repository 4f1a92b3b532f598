#pragma once

/// \file job_engine.hpp
/// Multi-tenant job engine: a long-lived service that accepts a queue of
/// typed simulation jobs (serve/job.hpp — the examples/ workloads), runs
/// them concurrently on the shared process-wide exec pool, and checkpoints
/// running trajectories so a killed or preempted job resumes bit-exactly.
/// serve::Server puts the versioned wire protocol (serve/wire.hpp) in
/// front of this API; every method here reports failures as typed
/// serve::ErrorCode values so in-process callers and remote clients see
/// the same results.
///
/// Scheduling. Queued jobs are admitted highest-priority-first (FIFO within
/// a priority) while a running slot is free (max_running, env
/// PWDFT_SERVE_SLOTS via JobEngineOptions::from_env). Each job is priced by
/// the calibrated performance model (perf::job_cost on its Workload); the
/// price is reported in JobStatus::model_cost and picks eviction victims.
/// When every slot is busy and a *higher-priority* job is queued, the
/// scheduler preempts: the cheapest running job with a strictly lower
/// priority is stopped cooperatively at its next step boundary (crash
/// semantics — work since its last snapshot is lost) and requeued, freeing
/// the slot. Each admitted job runs on its own engine-owned std::thread:
/// per docs/threading.md, concurrent parallel_for callers race for the pool
/// and losers run inline, so tenants interleave at operator granularity and
/// every trajectory stays bit-identical to its solo run (the async lane is
/// NOT used here — work submitted there can never win the pool). A job
/// thread marks itself finished as its last act under the engine lock, and
/// the next admission joins every finished one, so a long-lived engine
/// keeps no stack of a job that has ended.
///
/// Sharing. Tenants with the same cell/cutoff share one PlanewaveSetup
/// (engine-level cache) and — through fft::shared_engine — the same Fft3D
/// instances, so a newly admitted tenant replays the graph caches its
/// predecessors already built instead of rewarming them.
///
/// Crash safety — in-process AND across process restarts. Every submitted
/// job's spec is persisted to `<dir>/<name>.spec.ckpt` (the wire codec
/// doubles as the durability codec) and removed when the job completes. Every
/// checkpoint_every steps a running job snapshots its wavefunctions and
/// recorded trace (io::checkpoint v3, checksummed). Every file goes through
/// io::atomic_write (fsync, rename, directory fsync), so it survives power
/// loss as well as a kill; a failed snapshot write ends the job kFailed with
/// kIoError naming the file. preempt() stops a job cooperatively at the next
/// step boundary WITHOUT a fresh snapshot — deliberately equivalent to a
/// kill: work since the last snapshot is lost. resume() re-queues the job to
/// continue from its newest snapshot; because a PT-CN step is a pure function
/// of (psi, t) at the default exchange cadence, the stitched trajectory is
/// bit-identical to an uninterrupted run (tests/test_serve.cpp pins this;
/// JobSpec::validate rejects checkpointed MTS jobs). recover() rescans the
/// checkpoint directory after a process restart — e.g. a `kill -9` of the
/// serving process — and re-registers every job whose spec snapshot is still
/// on disk, so each interrupted trajectory continues from its newest snapshot
/// bit-identically (tests/test_server.cpp pins the kill-mid-run → restart →
/// bit-identical path end to end).

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/job.hpp"

namespace pwdft::serve {

struct JobEngineOptions {
  /// Maximum concurrently running jobs.
  std::size_t max_running = 2;
  /// Directory for per-job files: `<dir>/<name>.spec.ckpt` (durable spec),
  /// `.gs/.psi/.trace.ckpt` (snapshots).
  std::string checkpoint_dir = "/tmp";
  /// Scan checkpoint_dir in the constructor and re-register every job with
  /// a spec snapshot (see recover()). The restart mode of a crashed server.
  bool recover_on_start = false;

  /// The one resolution point for every serve engine env knob (strict
  /// env:: parsing — a typo fails loudly): PWDFT_SERVE_SLOTS (max_running,
  /// [1, 64], default 2), PWDFT_SERVE_CKPT_DIR (checkpoint_dir), and
  /// PWDFT_SERVE_RECOVER (recover_on_start, default off).
  static JobEngineOptions from_env();
};

using JobId = std::size_t;

class JobEngine {
 public:
  explicit JobEngine(JobEngineOptions opt = {});
  /// Joins every worker; queued jobs that never started stay kQueued.
  ~JobEngine();
  JobEngine(const JobEngine&) = delete;
  JobEngine& operator=(const JobEngine&) = delete;

  /// Validates, durably records, and enqueues a job, starting it
  /// immediately if admission allows. Job names must be unique within the
  /// engine (they key checkpoint files): the name is reserved under the
  /// engine lock, the spec is written without it (so no status/wait caller
  /// or running job waits on the flush), and the job is published under it
  /// again. A failed write returns kIoError and frees the name. A submit
  /// that races begin_shutdown() may still be accepted; it stays kQueued
  /// with its spec on disk, as recover() expects.
  SubmitResult submit(JobSpec spec);

  /// Cooperative kill: a queued job is marked preempted before it starts; a
  /// running job stops at its next step boundary, keeping only state saved
  /// at its last checkpoint (crash semantics — no farewell snapshot).
  ErrorCode preempt(JobId id);

  /// Permanent stop: like preempt, but the job lands in kCancelled, its
  /// durable spec and snapshots are deleted, and it can never be resumed.
  /// Cancelling an already-terminal job is an idempotent kOk.
  ErrorCode cancel(JobId id);

  /// Re-queues a preempted (or failed) job. If a checkpoint exists the job
  /// continues from it; otherwise it restarts from scratch. Returns the
  /// same id.
  SubmitResult resume(JobId id);

  /// Resume by checkpoint key, idempotently: a queued/running job is
  /// rejected with kAlreadyActive (never a duplicate run against the same
  /// checkpoint files), a kDone job is a no-op kOk, a cancelled job is
  /// kNotResumable. Always reports the original job's id.
  SubmitResult resume(const std::string& name);

  /// Re-registers every job with a `<name>.spec.ckpt` in checkpoint_dir
  /// (skipping names already known, newest-snapshot resume semantics as
  /// resume()). Returns the ids actually re-registered, in sorted-name
  /// order. Unreadable or corrupt spec files are skipped — recovery of the
  /// healthy jobs must not be hostage to one torn file.
  std::vector<JobId> recover();

  /// Blocks until the job is terminal (kShutdown-flagged status if the
  /// engine shuts down first; kUnknownJob for a bad id).
  JobStatus wait(JobId id);
  /// Blocks until the job's steps_done differs from `seen_steps` or the job
  /// is terminal — the server's per-step streaming primitive (live progress
  /// is published at every propagation step boundary, after that step's
  /// snapshot is on disk).
  JobStatus wait_progress(JobId id, std::uint64_t seen_steps);
  /// Blocks until no job is queued or running.
  void wait_all();
  /// Non-blocking snapshot.
  JobStatus status(JobId id) const;
  /// Id lookup by job name.
  std::optional<JobId> find(const std::string& name) const;
  /// Number of jobs ever registered (ids are [0, job_count)).
  std::size_t job_count() const;

  /// Begins shutdown without joining: nothing further is admitted (already
  /// running jobs drain to their natural end) and every blocked wait*()
  /// returns a kShutdown-flagged status. Queued jobs stay kQueued with
  /// their durable specs on disk — exactly the state recover() replays.
  /// The destructor still joins; calling this first makes it a drain.
  void begin_shutdown();

  /// The model price of a spec (perf::job_cost of its workload).
  static double cost_estimate(const JobSpec& spec);

 private:
  struct Job;

  /// Starts every queued job a free slot allows, and requests a scheduler
  /// preemption when a higher-priority job is starved by a full engine.
  /// Caller holds mu_.
  void pump_locked();
  /// Joins every job thread listed in finished_. Caller holds mu_ and is
  /// never itself listed: a job thread lists itself only after its last
  /// pump_locked().
  void reap_locked();
  /// Worker-thread body for one admitted job.
  void run_job(Job& job);
  /// Shutdown, validity and name checks of a spec: kOk, or the typed
  /// rejection. A name is taken once a job holds it or a submit() has
  /// reserved it for its spec write. Caller holds mu_.
  SubmitResult check_locked(const JobSpec& spec) const;
  /// The queued record of a spec, paths and model price set, id not yet.
  std::unique_ptr<Job> make_job(JobSpec spec) const;
  /// Assigns the next id, appends the job and admits what slots allow.
  /// Caller holds mu_.
  SubmitResult publish_locked(std::unique_ptr<Job> job);
  /// Engine-level PlanewaveSetup cache (keyed by cells/ecut/dense_factor).
  std::shared_ptr<const ham::PlanewaveSetup> setup_for(const core::SimulationOptions& sim);

  JobEngineOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Job>> jobs_;
  /// Names of submits whose spec write is in flight (outside mu_).
  std::vector<std::string> reserved_;
  std::vector<std::thread> threads_;
  /// Job threads that have ended and wait to be joined by the next admission.
  std::vector<std::thread::id> finished_;
  std::size_t running_ = 0;
  bool shutdown_ = false;

  struct SetupKey {
    int cells[3];
    double ecut;
    int dense_factor;
  };
  std::mutex setup_mu_;
  std::vector<std::pair<SetupKey, std::shared_ptr<const ham::PlanewaveSetup>>> setups_;
};

}  // namespace pwdft::serve
