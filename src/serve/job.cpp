#include "serve/job.hpp"

namespace pwdft::serve {

namespace {

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
         c == '.' || c == '_' || c == '-';
}

ErrorCode reject(std::string* why, const char* reason) {
  if (why) *why = reason;
  return ErrorCode::kInvalidSpec;
}

}  // namespace

ErrorCode JobSpec::validate(std::string* why) const {
  // The name keys checkpoint files under the engine's checkpoint_dir, and
  // arrives over the network: restrict it to a flat filename alphabet so a
  // remote peer can never point the engine outside its directory.
  if (name.empty()) return reject(why, "job name is empty (names key checkpoint files)");
  if (name.size() > 128) return reject(why, "job name longer than 128 characters");
  if (name[0] == '.') return reject(why, "job name starts with '.'");
  for (const char c : name)
    if (!name_char_ok(c))
      return reject(why, "job name has characters outside [A-Za-z0-9._-]");
  if (kind != JobKind::kScf && kind != JobKind::kAbsorption && kind != JobKind::kLaser)
    return reject(why, "unknown job kind");
  if (field.kind != FieldSpec::Kind::kNone && field.kind != FieldSpec::Kind::kDeltaKick &&
      field.kind != FieldSpec::Kind::kLaser)
    return reject(why, "unknown field kind");
  if (steps < 0) return reject(why, "steps is negative");
  if (steps > 1000000) return reject(why, "steps exceeds 1000000");
  if (!(dt_as > 0.0)) return reject(why, "dt_as must be positive");
  if (priority < -1000000 || priority > 1000000) return reject(why, "priority out of range");
  for (int d = 0; d < 3; ++d) {
    if (sim.cells[d] < 1) return reject(why, "supercell count below 1");
    if (sim.cells[d] > 64) return reject(why, "supercell count above 64");
  }
  if (!(sim.ecut > 0.0)) return reject(why, "ecut must be positive");
  if (sim.dense_factor < 1 || sim.dense_factor > 8)
    return reject(why, "dense_factor out of [1, 8]");
  if (sim.scf.max_iter < 1) return reject(why, "scf.max_iter below 1");
  if (sim.ace_refresh < 1) return reject(why, "sim.ace_refresh below 1");
  // Resume is bit-exact only at the default per-step exchange cadence
  // (MTS-aware resume is a ROADMAP follow-on): a checkpointed job must not
  // freeze exchange across steps.
  if (checkpoint_every > 0 && ptcn.mts_interval > 0)
    return reject(why, "mts_interval > 0 is not resumable; disable MTS or set checkpoint_every=0");
  return ErrorCode::kOk;
}

}  // namespace pwdft::serve
