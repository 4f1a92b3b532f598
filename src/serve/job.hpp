#pragma once

/// \file job.hpp
/// Typed job descriptions for the multi-tenant serve::JobEngine: the
/// workloads of examples/ (ground-state SCF probes, delta-kick absorption
/// runs, laser-excitation sweeps) expressed as owned, queueable values. A
/// JobSpec carries everything needed to (re)build its simulation from
/// scratch — no pointers into caller state — so a job can be resumed from a
/// checkpoint by a process that has never seen the original submission.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "serve/error.hpp"
#include "td/field.hpp"
#include "td/observables.hpp"

namespace pwdft::serve {

/// Owned external-field description (PropagateOptions only borrows a
/// td::ExternalField; queued jobs must own theirs). build() reconstructs
/// the identical field object on every run, which is what makes a resumed
/// trajectory see bit-identical a(t).
struct FieldSpec {
  enum class Kind { kNone, kDeltaKick, kLaser };
  Kind kind = Kind::kNone;
  grid::Vec3 kick{1.0e-3, 0.0, 0.0};  ///< kDeltaKick amplitude (a.u.)
  double laser_e0 = 0.01;             ///< kLaser peak field (paper pulse)

  std::unique_ptr<td::ExternalField> build() const {
    switch (kind) {
      case Kind::kDeltaKick:
        return std::make_unique<td::DeltaKick>(kick);
      case Kind::kLaser:
        return std::make_unique<td::LaserPulse>(td::LaserPulse::paper_pulse(laser_e0));
      case Kind::kNone:
        break;
    }
    return std::make_unique<td::ZeroField>();
  }
};

/// The workload archetypes of examples/. kScf runs the ground state only;
/// the time-dependent kinds propagate after it.
enum class JobKind { kScf, kAbsorption, kLaser };

struct JobSpec {
  std::string name;  ///< unique per engine; names the checkpoint files
  JobKind kind = JobKind::kScf;
  core::SimulationOptions sim;
  double dt_as = 50.0;  ///< PT-CN step (paper value)
  int steps = 0;        ///< propagation steps (ignored for kScf)
  FieldSpec field;
  td::PtCnOptions ptcn{};  ///< dt is overridden from dt_as
  bool record_energy = true;
  /// Higher runs first among queued jobs; FIFO within a priority.
  int priority = 0;
  /// Snapshot cadence in steps (psi + trace written atomically through
  /// io::checkpoint). 0 disables checkpointing (the job then always
  /// restarts from scratch after a kill).
  std::uint64_t checkpoint_every = 1;

  /// Builds the field matching `kind` (absorption = delta kick, laser =
  /// paper pulse, SCF/none = zero field).
  std::unique_ptr<td::ExternalField> build_field() const {
    FieldSpec f = field;
    if (kind == JobKind::kScf) f.kind = FieldSpec::Kind::kNone;
    if (kind == JobKind::kAbsorption && f.kind == FieldSpec::Kind::kNone)
      f.kind = FieldSpec::Kind::kDeltaKick;
    if (kind == JobKind::kLaser && f.kind == FieldSpec::Kind::kNone)
      f.kind = FieldSpec::Kind::kLaser;
    return f.build();
  }

  /// Structural validation shared by the engine and the wire front-end: a
  /// spec a remote peer hands us must be safe to run *and* safe to use as a
  /// checkpoint-file key. Returns kOk or kInvalidSpec; when `why` is
  /// non-null it receives a one-line reason.
  ErrorCode validate(std::string* why = nullptr) const;
};

enum class JobState { kQueued, kRunning, kDone, kPreempted, kFailed, kCancelled };

constexpr bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kPreempted || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

constexpr const char* state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kPreempted: return "preempted";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Snapshot of one job's progress, returned by JobEngine::status/wait and
/// streamed over the wire. `error` != kOk marks either a failed lookup
/// (kUnknownJob, kShutdown — the rest of the fields are then meaningless)
/// or, with state == kFailed, the job's own failure (kJobFailed, or
/// kIoError for a failed snapshot write, + message).
struct JobStatus {
  JobState state = JobState::kQueued;
  /// Recorded trajectory: for finished jobs the full trace; for preempted
  /// jobs everything recorded up to the stop (resume stitches the rest).
  /// Streamed intermediate statuses omit it (wire cost).
  std::vector<td::TimePoint> trace;
  std::uint64_t steps_done = 0;  ///< propagation steps completed (live)
  double model_cost = 0.0;       ///< perf::job_cost admission estimate
  double scf_energy = 0.0;       ///< ground-state total energy (Ha)
  std::uint32_t preemptions = 0; ///< times the scheduler evicted this job
  ErrorCode error = ErrorCode::kOk;
  std::string message;           ///< human-readable detail for `error`
  bool ok() const { return error == ErrorCode::kOk; }
};

/// Typed result of submit/resume: the id is valid only when ok().
struct SubmitResult {
  ErrorCode error = ErrorCode::kOk;
  std::size_t id = 0;
  std::string message;
  bool ok() const { return error == ErrorCode::kOk; }
};

}  // namespace pwdft::serve
