// Crash- and concurrency-safe artifact file I/O.
//
// Writers build the whole serialized payload in memory, write it to a
// unique temp file in the destination directory and rename() it into
// place — on POSIX the rename is atomic, so a concurrent reader (or a
// second experiment run racing on the same cache row) sees either the old
// complete file or the new complete file, never a torn prefix.  Readers
// get a hard size cap so a corrupt or hostile size never turns into an
// unbounded allocation.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>

#include "support/status.hpp"

namespace tbp::io {

/// Hard ceiling on any single artifact this project reads back (cache
/// rows, store entries and manifests are all well under 1 MB in practice).
inline constexpr std::uint64_t kMaxArtifactBytes = 64ull << 20;  // 64 MB

/// Writes `payload` to `path` via temp file + rename.  Creates parent
/// directories.  On failure the temp file is removed and the destination is
/// untouched.
[[nodiscard]] Status write_file_atomic(const std::filesystem::path& path,
                                       std::string_view payload);

/// Reads a whole file, rejecting files over `max_bytes` before allocating.
/// kNotFound when the file does not exist, kIoError on read failure.
[[nodiscard]] Result<std::string> read_file_limited(
    const std::filesystem::path& path,
    std::uint64_t max_bytes = kMaxArtifactBytes);

}  // namespace tbp::io
