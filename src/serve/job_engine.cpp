#include "serve/job_engine.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"
#include "io/checkpoint.hpp"
#include "io/frame_file.hpp"
#include "perf/model.hpp"
#include "serve/wire.hpp"

namespace pwdft::serve {

namespace {

constexpr const char* kSpecSuffix = ".spec.ckpt";

JobStatus unknown_job_status(JobId id) {
  JobStatus s;
  s.error = ErrorCode::kUnknownJob;
  s.message = "unknown job id " + std::to_string(id);
  return s;
}

}  // namespace

JobEngineOptions JobEngineOptions::from_env() {
  JobEngineOptions o;
  o.max_running = static_cast<std::size_t>(env::integer("PWDFT_SERVE_SLOTS", 2, 1, 64));
  o.checkpoint_dir = env::text("PWDFT_SERVE_CKPT_DIR", o.checkpoint_dir);
  o.recover_on_start = env::flag("PWDFT_SERVE_RECOVER", false);
  return o;
}

/// Full per-job record; JobStatus is the copyable slice handed to callers.
struct JobEngine::Job {
  JobId id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::vector<td::TimePoint> trace;
  std::uint64_t steps_done = 0;  ///< published live at step boundaries
  double model_cost = 0.0;
  double scf_energy = 0.0;
  std::uint32_t preemptions = 0;  ///< scheduler evictions suffered
  ErrorCode error = ErrorCode::kOk;
  std::string message;
  bool preempt_requested = false;
  bool cancel_requested = false;
  bool evict_requested = false;   ///< scheduler-initiated preemption
  std::uint64_t submit_order = 0;  ///< FIFO tiebreak within a priority

  std::string spec_path;   ///< durable JobSpec (restart-recovery key)
  std::string gs_path;     ///< ground-state orbitals (excitation reference)
  std::string psi_path;    ///< latest propagation snapshot
  std::string trace_path;  ///< trace recorded up to that snapshot

  void set_paths(const std::string& dir) {
    const std::string base = dir + "/" + spec.name;
    spec_path = base + kSpecSuffix;
    gs_path = base + ".gs.ckpt";
    psi_path = base + ".psi.ckpt";
    trace_path = base + ".trace.ckpt";
  }

  /// Removes the durable spec (job no longer restart-recoverable).
  void drop_spec_file() const { std::remove(spec_path.c_str()); }
  /// Removes every on-disk artifact (cancel semantics).
  void drop_all_files() const {
    drop_spec_file();
    std::remove(gs_path.c_str());
    std::remove(psi_path.c_str());
    std::remove(trace_path.c_str());
  }

  JobStatus to_status() const {
    JobStatus s;
    s.state = state;
    s.trace = trace;
    s.steps_done = steps_done;
    s.model_cost = model_cost;
    s.scf_energy = scf_energy;
    s.preemptions = preemptions;
    s.error = error;
    s.message = message;
    return s;
  }
};

double JobEngine::cost_estimate(const JobSpec& spec) {
  const std::size_t natoms = 8 * static_cast<std::size_t>(spec.sim.cells[0]) *
                             spec.sim.cells[1] * spec.sim.cells[2];
  return perf::job_cost(perf::SummitMachine{}, perf::Workload::silicon(natoms),
                        spec.kind == JobKind::kScf ? 1 : spec.steps);
}

JobEngine::JobEngine(JobEngineOptions opt) : opt_(std::move(opt)) {
  if (opt_.recover_on_start) recover();
}

void JobEngine::begin_shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = true;  // pump_locked admits nothing more
  cv_.notify_all();  // unblock wait/wait_progress/wait_all
}

JobEngine::~JobEngine() {
  begin_shutdown();
  for (std::thread& t : threads_) t.join();
}

SubmitResult JobEngine::check_locked(const JobSpec& spec) const {
  if (shutdown_) return {ErrorCode::kShutdown, 0, "engine is shutting down"};
  std::string why;
  if (spec.validate(&why) != ErrorCode::kOk) return {ErrorCode::kInvalidSpec, 0, why};
  const std::string dup = "duplicate job name '" + spec.name + "'";
  for (const auto& j : jobs_)
    if (j->spec.name == spec.name) return {ErrorCode::kDuplicateName, j->id, dup};
  if (std::find(reserved_.begin(), reserved_.end(), spec.name) != reserved_.end())
    return {ErrorCode::kDuplicateName, 0, dup};
  return {};
}

std::unique_ptr<JobEngine::Job> JobEngine::make_job(JobSpec spec) const {
  auto job = std::make_unique<Job>();
  job->model_cost = cost_estimate(spec);
  job->spec = std::move(spec);
  job->set_paths(opt_.checkpoint_dir);
  return job;
}

SubmitResult JobEngine::publish_locked(std::unique_ptr<Job> job) {
  job->id = jobs_.size();
  job->submit_order = jobs_.size();
  jobs_.push_back(std::move(job));
  const JobId id = jobs_.back()->id;
  pump_locked();
  return {ErrorCode::kOk, id, {}};
}

SubmitResult JobEngine::submit(JobSpec spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (SubmitResult r = check_locked(spec); !r.ok()) return r;
    reserved_.push_back(spec.name);  // no other submit or recover() takes it now
  }
  // The durable spec is what recover() replays after a process restart; a
  // job that cannot be made durable is not accepted at all. The write (two
  // fsyncs) runs without mu_, so status/wait callers and running jobs'
  // step publishes never queue behind a disk flush.
  auto job = make_job(std::move(spec));
  SubmitResult failed;
  try {
    wire::save_spec_file(job->spec_path, job->spec);
  } catch (const Error& e) {
    failed = {ErrorCode::kIoError, 0, e.what()};
  }
  std::lock_guard<std::mutex> lock(mu_);
  reserved_.erase(std::find(reserved_.begin(), reserved_.end(), job->spec.name));
  if (!failed.ok()) return failed;
  return publish_locked(std::move(job));
}

std::vector<JobId> JobEngine::recover() {
  // Collect candidate names first (sorted: recovery order — and therefore
  // id assignment — is deterministic, not directory-iteration order).
  std::vector<std::string> names;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(opt_.checkpoint_dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string fname = it->path().filename().string();
    if (fname.size() > std::char_traits<char>::length(kSpecSuffix) &&
        fname.ends_with(kSpecSuffix))
      names.push_back(fname.substr(0, fname.size() - std::char_traits<char>::length(kSpecSuffix)));
  }
  std::sort(names.begin(), names.end());

  std::vector<JobId> ids;
  for (const std::string& name : names) {
    JobSpec spec;
    const std::string path = opt_.checkpoint_dir + "/" + name + kSpecSuffix;
    if (wire::load_spec_file(path, &spec) != ErrorCode::kOk) continue;
    if (spec.name != name) continue;  // snapshot must match its own key
    // Its spec is already on disk: check and publish under one lock, with
    // no write. A known or reserved name is skipped as a duplicate.
    std::lock_guard<std::mutex> lock(mu_);
    if (!check_locked(spec).ok()) continue;
    ids.push_back(publish_locked(make_job(std::move(spec))).id);
  }
  return ids;
}

ErrorCode JobEngine::preempt(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= jobs_.size()) return ErrorCode::kUnknownJob;
  Job& job = *jobs_[id];
  if (is_terminal(job.state)) return ErrorCode::kOk;  // already stopped
  job.preempt_requested = true;
  if (job.state == JobState::kQueued) {
    job.state = JobState::kPreempted;
    cv_.notify_all();
  }
  return ErrorCode::kOk;
}

ErrorCode JobEngine::cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= jobs_.size()) return ErrorCode::kUnknownJob;
  Job& job = *jobs_[id];
  if (job.state == JobState::kCancelled) return ErrorCode::kOk;
  if (job.state == JobState::kDone) return ErrorCode::kOk;  // finished first
  job.cancel_requested = true;
  if (job.state != JobState::kRunning) {
    // Queued or already-stopped (preempted/failed): cancel takes effect now.
    job.state = JobState::kCancelled;
    job.drop_all_files();
    cv_.notify_all();
  }
  return ErrorCode::kOk;  // a running job lands in kCancelled at its next boundary
}

SubmitResult JobEngine::resume(JobId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= jobs_.size())
    return {ErrorCode::kUnknownJob, 0, "unknown job id " + std::to_string(id)};
  Job& job = *jobs_[id];
  if (job.state == JobState::kQueued || job.state == JobState::kRunning)
    return {ErrorCode::kAlreadyActive, job.id,
            "job '" + job.spec.name + "' is still " + state_name(job.state)};
  if (job.state == JobState::kDone) return {ErrorCode::kOk, job.id, {}};  // idempotent
  if (job.state == JobState::kCancelled)
    return {ErrorCode::kNotResumable, job.id, "job '" + job.spec.name + "' was cancelled"};
  job.state = JobState::kQueued;
  job.preempt_requested = false;
  job.evict_requested = false;
  job.error = ErrorCode::kOk;
  job.message.clear();
  pump_locked();
  return {ErrorCode::kOk, job.id, {}};
}

SubmitResult JobEngine::resume(const std::string& name) {
  JobId id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool found = false;
    for (const auto& j : jobs_)
      if (j->spec.name == name) {
        id = j->id;
        found = true;
      }
    if (!found) return {ErrorCode::kUnknownJob, 0, "no job named '" + name + "'"};
  }
  return resume(id);
}

JobStatus JobEngine::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (id >= jobs_.size()) return unknown_job_status(id);
  cv_.wait(lock, [&] { return shutdown_ || is_terminal(jobs_[id]->state); });
  JobStatus s = jobs_[id]->to_status();
  if (!is_terminal(s.state)) {
    s.error = ErrorCode::kShutdown;
    s.message = "engine shut down before the job finished";
  }
  return s;
}

JobStatus JobEngine::wait_progress(JobId id, std::uint64_t seen_steps) {
  std::unique_lock<std::mutex> lock(mu_);
  if (id >= jobs_.size()) return unknown_job_status(id);
  cv_.wait(lock, [&] {
    return shutdown_ || is_terminal(jobs_[id]->state) || jobs_[id]->steps_done != seen_steps;
  });
  JobStatus s = jobs_[id]->to_status();
  if (!is_terminal(s.state) && shutdown_) {
    s.error = ErrorCode::kShutdown;
    s.message = "engine shut down before the job finished";
  }
  return s;
}

void JobEngine::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    if (shutdown_) return true;
    for (const auto& j : jobs_)
      if (j->state == JobState::kQueued || j->state == JobState::kRunning) return false;
    return true;
  });
}

JobStatus JobEngine::status(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= jobs_.size()) return unknown_job_status(id);
  return jobs_[id]->to_status();
}

std::optional<JobId> JobEngine::find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& j : jobs_)
    if (j->spec.name == name) return j->id;
  return std::nullopt;
}

std::size_t JobEngine::job_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return jobs_.size();
}

void JobEngine::pump_locked() {
  if (shutdown_) return;
  for (;;) {
    // Highest priority first, then submission order: deterministic given
    // the same submission/completion sequence.
    Job* next = nullptr;
    for (const auto& j : jobs_) {
      if (j->state != JobState::kQueued) continue;
      if (!next || j->spec.priority > next->spec.priority ||
          (j->spec.priority == next->spec.priority && j->submit_order < next->submit_order))
        next = j.get();
    }
    if (!next) return;
    if (running_ >= opt_.max_running) {
      // Scheduler preemption: a starved higher-priority job evicts the
      // cheapest running job of strictly lower priority. The victim stops
      // cooperatively at its next step boundary with crash semantics (work
      // since its last snapshot is lost) and is requeued, so it resumes
      // from its newest checkpoint once a slot frees up again.
      Job* victim = nullptr;
      for (const auto& j : jobs_) {
        if (j->state != JobState::kRunning) continue;
        if (j->preempt_requested || j->cancel_requested || j->evict_requested) continue;
        if (j->spec.priority >= next->spec.priority) continue;
        if (!victim || j->model_cost < victim->model_cost) victim = j.get();
      }
      if (victim) victim->evict_requested = true;
      return;
    }
    next->state = JobState::kRunning;
    ++running_;
    reap_locked();
    threads_.emplace_back([this, job = next] { run_job(*job); });
  }
}

void JobEngine::reap_locked() {
  // A listed job thread holds no lock past this point, so the join only
  // waits for it to return.
  for (const std::thread::id id : finished_) {
    const auto it = std::find_if(threads_.begin(), threads_.end(),
                                 [id](const std::thread& t) { return t.get_id() == id; });
    it->join();
    threads_.erase(it);
  }
  finished_.clear();
}

std::shared_ptr<const ham::PlanewaveSetup> JobEngine::setup_for(
    const core::SimulationOptions& sim) {
  std::lock_guard<std::mutex> lock(setup_mu_);
  for (const auto& [key, setup] : setups_) {
    if (key.cells[0] == sim.cells[0] && key.cells[1] == sim.cells[1] &&
        key.cells[2] == sim.cells[2] && key.ecut == sim.ecut &&
        key.dense_factor == sim.dense_factor)
      return setup;
  }
  auto setup = std::make_shared<const ham::PlanewaveSetup>(
      crystal::Crystal::silicon_supercell(sim.cells[0], sim.cells[1], sim.cells[2]), sim.ecut,
      sim.dense_factor);
  setups_.emplace_back(SetupKey{{sim.cells[0], sim.cells[1], sim.cells[2]}, sim.ecut,
                                sim.dense_factor},
                       setup);
  return setup;
}

void JobEngine::run_job(Job& job) {
  std::vector<td::TimePoint> trace;
  std::uint64_t steps_done = 0;
  double scf_energy = 0.0;
  std::string error;
  ErrorCode error_code = ErrorCode::kJobFailed;
  enum class Stop { kNone, kPreempt, kCancel, kEvict };
  Stop stop = Stop::kNone;

  try {
    core::Simulation sim(setup_for(job.spec.sim), job.spec.sim);

    // Resume state: non-empty when a usable snapshot pair exists.
    CMatrix psi_gs;
    double t0 = 0.0;
    std::uint64_t step0 = 0;
    bool resuming = false;
    if (job.spec.checkpoint_every > 0) {
      try {
        io::CheckpointMeta meta_gs = io::load_wavefunctions(job.gs_path, psi_gs);
        CMatrix psi_ckpt;
        const io::CheckpointMeta meta = io::load_wavefunctions(job.psi_path, psi_ckpt, &meta_gs);
        std::vector<double> flat;
        io::load_blob(job.trace_path, flat);
        trace = wire::unflatten_trace(flat);
        sim.restore_wavefunctions(psi_ckpt);
        t0 = meta.time_au;
        step0 = meta.step;
        steps_done = step0;
        resuming = true;
      } catch (const Error&) {
        // No (or unreadable) snapshot: start from scratch. A torn file is
        // impossible by construction (atomic saves), but a checkpoint from
        // before the job's first snapshot simply does not exist yet.
        trace.clear();
        psi_gs = CMatrix();
        resuming = false;
      }
    }

    if (!resuming) {
      const scf::ScfResult scf = sim.ground_state();
      scf_energy = scf.energy.total();
      {
        // Publish the ground-state energy while the job is still running,
        // so streamed statuses carry it.
        std::lock_guard<std::mutex> lock(mu_);
        jobs_[job.id]->scf_energy = scf_energy;
      }
      if (job.spec.checkpoint_every > 0 && job.spec.kind != JobKind::kScf) {
        // Ground-state orbitals: the excitation reference every resume
        // needs, and the compatibility stamp for later snapshots.
        io::save_wavefunctions(
            job.gs_path,
            io::CheckpointMeta::from_setup(sim.setup(), sim.wavefunctions().cols(), 0.0, 0),
            sim.wavefunctions());
      }
    }

    if (job.spec.kind != JobKind::kScf && steps_done < static_cast<std::uint64_t>(job.spec.steps)) {
      const auto field = job.spec.build_field();
      core::PropagateOptions prop;
      prop.integrator = core::Integrator::kPtCn;
      prop.dt_as = job.spec.dt_as;
      prop.steps = static_cast<int>(job.spec.steps - steps_done);
      prop.field = field.get();
      prop.ptcn = job.spec.ptcn;
      prop.record_energy = job.spec.record_energy;
      prop.t0 = t0;
      prop.step0 = step0;
      prop.record_initial = !resuming;
      if (resuming) prop.psi0_reference = &psi_gs;
      prop.on_step = [&](std::uint64_t step, const std::vector<td::TimePoint>& live,
                         const CMatrix& psi, double t) {
        steps_done = step;
        if (job.spec.checkpoint_every > 0 && step % job.spec.checkpoint_every == 0 &&
            step < static_cast<std::uint64_t>(job.spec.steps)) {
          // Snapshot = psi + trace-so-far, both atomic. `trace` holds the
          // pre-resume prefix, `live` what this propagate() recorded, so
          // the blob is always the full history from t = 0.
          const auto meta = io::CheckpointMeta::from_setup(sim.setup(), psi.cols(), t, step);
          io::save_wavefunctions(job.psi_path, meta, psi);
          std::vector<td::TimePoint> full = trace;
          full.insert(full.end(), live.begin(), live.end());
          io::save_blob(job.trace_path, meta, wire::flatten_trace(full));
        }
        // Stop requests are checked after the cadence snapshot (a kill
        // lands at this boundary, not mid-write), and live progress is
        // published only now — an observer that sees steps_done == k knows
        // snapshot k is already on disk. Nothing else is persisted:
        // anything since the last on-cadence snapshot is lost, exactly as
        // in a real kill. Request priority: cancel > client preempt >
        // scheduler eviction.
        std::lock_guard<std::mutex> lock(mu_);
        Job& j = *jobs_[job.id];
        j.steps_done = step;
        if (j.cancel_requested)
          stop = Stop::kCancel;
        else if (j.preempt_requested)
          stop = Stop::kPreempt;
        else if (j.evict_requested)
          stop = Stop::kEvict;
        cv_.notify_all();
        return stop == Stop::kNone;
      };
      auto live = sim.propagate(prop);
      trace.insert(trace.end(), live.begin(), live.end());
    }  // else: an SCF job, or resumed at or past the requested horizon
  } catch (const io::WriteError& e) {  // a snapshot write failed; what() names the file
    error = e.what();
    error_code = ErrorCode::kIoError;
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::lock_guard<std::mutex> lock(mu_);
  Job& j = *jobs_[job.id];
  j.trace = std::move(trace);
  j.steps_done = steps_done;
  if (scf_energy != 0.0) j.scf_energy = scf_energy;
  if (!error.empty()) {
    j.state = JobState::kFailed;
    j.error = error_code;
    j.message = std::move(error);
  } else if (stop == Stop::kCancel || j.cancel_requested) {
    // A cancel that landed too late to stop the run still wins: the caller
    // asked for the job to be gone.
    j.state = JobState::kCancelled;
    j.drop_all_files();
  } else if (stop == Stop::kEvict) {
    // Scheduler preemption: straight back into the queue; the next
    // admission resumes from the newest snapshot.
    j.state = JobState::kQueued;
    j.evict_requested = false;
    ++j.preemptions;
  } else if (stop == Stop::kPreempt || j.preempt_requested) {
    j.state = JobState::kPreempted;
  } else {
    j.state = JobState::kDone;
    j.drop_spec_file();  // no longer restart-recoverable work
  }
  --running_;
  pump_locked();
  // Listed only now, after this thread's last pump_locked(): a job thread
  // never joins itself. The next admission joins it.
  finished_.push_back(std::this_thread::get_id());
  cv_.notify_all();
}

}  // namespace pwdft::serve
