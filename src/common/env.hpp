#pragma once

/// \file env.hpp
/// Strict parsing of PWDFT_* environment variables.
///
/// The deployment knobs (docs/PERFORMANCE.md: threads, addresses,
/// timeouts, slots, paths, recovery) are resolved from the environment; no
/// variable may change a result. A malformed value must fail loudly: a typo
/// (`PWDFT_NUM_THREADS=four`, `PWDFT_SERVE_RECOVER=On!`) that silently
/// resolves to "off" or "default" runs the wrong configuration through an
/// entire experiment. Every helper here therefore throws
/// pwdft::Error — naming the variable and the accepted forms — on anything
/// it cannot parse exactly; an unset variable yields the caller's default.

#include <string>

namespace pwdft::env {

/// Boolean knob. Accepts (case-insensitive) 1/on/true/yes and 0/off/false/no;
/// unset returns `fallback`; anything else throws pwdft::Error.
bool flag(const char* name, bool fallback);

/// Integer knob. Accepts a full-string base-10 integer in [min, max]; unset
/// returns `fallback` (which need not lie in the range); a malformed or
/// out-of-range value throws pwdft::Error.
long integer(const char* name, long fallback, long min, long max);

/// String knob. Unset returns `fallback`; a set-but-empty value throws
/// pwdft::Error (an empty path or address is always a typo, and silently
/// treating it as "default" is the lenience this header exists to remove).
std::string text(const char* name, const std::string& fallback);

}  // namespace pwdft::env
