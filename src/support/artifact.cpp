#include "support/artifact.hpp"

#include <algorithm>
#include <cstdio>

#include "support/checksum.hpp"

namespace tbp::io {
namespace {

constexpr std::string_view kCrcTag = "crc32 ";

[[nodiscard]] Status corrupt(std::string_view kind, const std::string& what) {
  return Status(StatusCode::kCorrupt, std::string(kind) + ": " + what);
}

}  // namespace

std::string seal_artifact(std::string_view magic, std::string_view body) {
  char crc[16];
  std::snprintf(crc, sizeof crc, "%08x", crc32(body));
  std::string out;
  out.reserve(magic.size() + body.size() + 24);
  out.append(magic);
  out.push_back('\n');
  out.append(body);
  out.append(kCrcTag);
  out.append(crc);
  out.push_back('\n');
  return out;
}

Result<std::string> unseal_artifact(std::string_view text,
                                    const ArtifactFormat& format) {
  const std::size_t magic_end = text.find('\n');
  if (magic_end == std::string_view::npos) {
    return corrupt(format.kind, "missing magic line");
  }
  const std::string_view magic = text.substr(0, magic_end);
  const std::string_view body = text.substr(magic_end + 1);

  if (magic != format.magic) {
    if (magic.substr(0, format.family.size()) == format.family) {
      return Status(StatusCode::kVersionMismatch,
                    std::string(format.kind) + ": unsupported format version '" +
                        std::string(magic) + "'");
    }
    return corrupt(format.kind,
                   "bad magic '" + std::string(magic.substr(0, 32)) + "'");
  }

  // The last line must be exactly "crc32 <8 hex>\n" over the preceding body;
  // anything looser would let corruption of the trailer itself slip through.
  if (body.empty() || body.back() != '\n') {
    return corrupt(format.kind, "truncated final line");
  }
  const std::string_view trimmed = body.substr(0, body.size() - 1);
  const std::size_t last_nl = trimmed.rfind('\n');
  const std::size_t crc_start = last_nl == std::string_view::npos ? 0 : last_nl + 1;
  const std::string_view crc_line = trimmed.substr(crc_start);
  if (crc_line.substr(0, kCrcTag.size()) != kCrcTag) {
    return corrupt(format.kind, "missing crc32 trailer");
  }
  const std::string_view digits = crc_line.substr(kCrcTag.size());
  const auto is_hex = [](char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
  };
  if (digits.size() != 8 ||
      !std::all_of(digits.begin(), digits.end(), is_hex)) {
    return corrupt(format.kind, "unreadable crc32 trailer");
  }
  std::uint32_t stored = 0;
  std::sscanf(std::string(digits).c_str(), "%8x", &stored);
  const std::string_view payload = body.substr(0, crc_start);
  const std::uint32_t actual = crc32(payload);
  if (actual != stored) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "checksum mismatch (stored %08x, computed %08x)",
                  stored, actual);
    return corrupt(format.kind, buf);
  }
  return std::string(payload);
}

}  // namespace tbp::io
