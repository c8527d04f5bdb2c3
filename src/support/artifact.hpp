// Common envelope for persisted artifacts:
//
//   <magic>\n            version-tagged header, e.g. "tbpoint-row-v3"
//   <body>               format-specific payload (line-oriented text)
//   crc32 <8 hex>\n      checksum trailer over the body bytes
//
// seal_artifact builds the envelope; unseal_artifact validates magic and
// checksum and hands the body back.  Only the current version loads: an
// older or newer version of the same family is a kVersionMismatch, so no
// file is ever read without its checksum.
#pragma once

#include <string>
#include <string_view>

#include "support/status.hpp"

namespace tbp::io {

struct ArtifactFormat {
  std::string_view magic;   ///< current version, written and verified
  std::string_view family;  ///< magic prefix => kVersionMismatch if unknown
  std::string_view kind;    ///< "cache-row", "store-entry", ... for messages
};

/// "<magic>\n<body>crc32 <hex>\n".
[[nodiscard]] std::string seal_artifact(std::string_view magic,
                                        std::string_view body);

/// Validates the envelope and returns the body.  Errors: kCorrupt (bad
/// magic, missing/unreadable trailer, checksum mismatch), kVersionMismatch
/// (same family, unsupported version).
[[nodiscard]] Result<std::string> unseal_artifact(std::string_view text,
                                                  const ArtifactFormat& format);

}  // namespace tbp::io
