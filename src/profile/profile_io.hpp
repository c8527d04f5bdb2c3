// Profile (de)serialization.
//
// "One-time profiling" only pays off if the profile outlives the process:
// the expensive functional walk is done once per program/input pair, saved,
// and re-clustered cheaply for every hardware configuration studied.  The
// format is a line-oriented text format (self-describing, diff-able,
// version-tagged).  v2 appends a crc32 trailer over the payload and is
// written atomically; any other version is a kVersionMismatch.  Loaders
// never trust size fields: every count is bounds-checked before any
// allocation, so a corrupt file yields a Status, not an OOM.
#pragma once

#include <iosfwd>
#include <string>

#include "profile/profiler.hpp"
#include "support/status.hpp"

namespace tbp::profile {

/// Hard caps on counts read from disk (reject-before-resize).  Generous:
/// the full-scale Table VI workloads stay orders of magnitude below them.
inline constexpr std::size_t kMaxProfileLaunches = 1u << 20;
inline constexpr std::size_t kMaxProfileBasicBlocks = 1u << 20;
inline constexpr std::size_t kMaxProfileBlocks = 1u << 24;

void save_profile(const ApplicationProfile& profile, std::ostream& out);
/// Atomic (temp file + rename): concurrent readers never see a torn file.
[[nodiscard]] Status save_profile_file(const ApplicationProfile& profile,
                                       const std::string& path);

/// Errors: kCorrupt (bad magic, truncated records, non-numeric fields,
/// checksum mismatch), kVersionMismatch (unknown profile version),
/// kTooLarge (size field above cap), kNotFound/kIoError (file variant).
[[nodiscard]] Result<ApplicationProfile> load_profile(std::istream& in);
[[nodiscard]] Result<ApplicationProfile> load_profile_file(
    const std::string& path);

}  // namespace tbp::profile
