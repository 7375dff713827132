#pragma once

/// \file program_serdes.hpp
/// Versioned, endian-stable binary serialization for runtime::StepProgram —
/// the on-disk representation behind runtime::ProgramCache. The format is a
/// strict round trip: a deserialized program replays bit-identically (same
/// StepStats, same simulator event order) to the freshly recorded one.
///
/// Layout (all integers little-endian regardless of host):
///
///   magic "SSDTPRG\n" (8 bytes)
///   u32   format version (kProgramFormatVersion)
///   u64   FNV-1a checksum of everything after this field
///   str   canonical ProgramKey text (u32 length + bytes) — the *full* key,
///         not just its hash, so a lookup validates the fingerprint exactly
///         and a hash collision degrades to a cache miss, never a wrong hit
///   payload: op array, aux lists, label string table, shapes, cache-entry
///         inits, weight table, slot count, schedule, segments, flags
///
/// util::Label values are interned process-local ids, so they serialize as
/// their rendered text (Label::str()) and re-intern as plain labels on
/// load. That is behaviourally lossless: a program's labels are only ever
/// observed through their rendered text (stream/flow names in traces and
/// error messages), never through their kind or id.
///
/// deserialize_program never throws on malformed input: a truncated,
/// corrupt, wrong-version, or wrong-fingerprint buffer returns false (with
/// a reason) and the caller re-traces — a stale cache file must never take
/// down a sweep.

#include <string>
#include <string_view>

#include "ssdtrain/runtime/step_program.hpp"

namespace ssdtrain::runtime {

/// Bumped on any layout change; files written by other versions are
/// rejected on read (and re-traced), never reinterpreted.
inline constexpr std::uint32_t kProgramFormatVersion = 2;

/// The serialized form of \p program, fingerprinted with \p key_text (the
/// canonical ProgramKey text of the configuration it was recorded from).
[[nodiscard]] std::string serialize_program(const StepProgram& program,
                                            std::string_view key_text);

/// Parses \p data into \p out. Returns false — leaving \p out
/// unspecified — when the buffer is truncated or corrupt (checksum), was
/// written by a different format version, or carries a key text different
/// from \p expected_key_text. \p error, when non-null, receives the reason.
[[nodiscard]] bool deserialize_program(std::string_view data,
                                       std::string_view expected_key_text,
                                       StepProgram& out,
                                       std::string* error = nullptr);

}  // namespace ssdtrain::runtime
