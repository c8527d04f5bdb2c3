#include "profile/profile_io.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "support/artifact.hpp"
#include "support/atomic_file.hpp"

namespace tbp::profile {
namespace {

constexpr io::ArtifactFormat kFormat{
    .magic = "tbpoint-profile-v2",
    .family = "tbpoint-profile-",
    .kind = "profile",
};

/// Reserving in chunks keeps a lying size field from allocating anything
/// big before the (soon-to-fail) element reads catch the truncation.
constexpr std::size_t kReserveChunk = 4096;

[[nodiscard]] Status corrupt(const std::string& what) {
  return Status(StatusCode::kCorrupt, "profile: " + what);
}

[[nodiscard]] std::string serialize_body(const ApplicationProfile& profile) {
  std::ostringstream out;
  out << profile.launches.size() << '\n';
  for (const LaunchProfile& launch : profile.launches) {
    out << "launch " << launch.kernel_name << ' ' << launch.blocks.size() << ' '
        << launch.bbv.size() << '\n';
    out << "bbv";
    for (std::uint64_t v : launch.bbv) out << ' ' << v;
    out << '\n';
    for (const BlockStats& b : launch.blocks) {
      out << b.thread_insts << ' ' << b.warp_insts << ' ' << b.mem_requests << '\n';
    }
  }
  return out.str();
}

[[nodiscard]] Result<ApplicationProfile> parse_body(const std::string& body) {
  std::istringstream in(body);
  std::size_t n_launches = 0;
  if (!(in >> n_launches)) return corrupt("unreadable launch count");
  if (n_launches > kMaxProfileLaunches) {
    return Status(StatusCode::kTooLarge,
                  "profile: launch count " + std::to_string(n_launches) +
                      " exceeds cap " + std::to_string(kMaxProfileLaunches));
  }

  ApplicationProfile profile;
  profile.launches.reserve(std::min(n_launches, kReserveChunk));
  for (std::size_t l = 0; l < n_launches; ++l) {
    const std::string at = "launch " + std::to_string(l) + ": ";
    std::string tag;
    LaunchProfile launch;
    std::size_t n_blocks = 0;
    std::size_t n_bbs = 0;
    if (!(in >> tag >> launch.kernel_name >> n_blocks >> n_bbs) ||
        tag != "launch") {
      return corrupt(at + "malformed launch header");
    }
    if (n_bbs > kMaxProfileBasicBlocks) {
      return Status(StatusCode::kTooLarge,
                    "profile: " + at + "bbv size " + std::to_string(n_bbs) +
                        " exceeds cap " + std::to_string(kMaxProfileBasicBlocks));
    }
    if (n_blocks > kMaxProfileBlocks) {
      return Status(StatusCode::kTooLarge,
                    "profile: " + at + "block count " + std::to_string(n_blocks) +
                        " exceeds cap " + std::to_string(kMaxProfileBlocks));
    }
    if (!(in >> tag) || tag != "bbv") return corrupt(at + "missing bbv record");
    launch.bbv.reserve(std::min(n_bbs, kReserveChunk));
    for (std::size_t i = 0; i < n_bbs; ++i) {
      std::uint64_t v = 0;
      if (!(in >> v)) {
        return corrupt(at + "bbv entry " + std::to_string(i) + " unreadable");
      }
      launch.bbv.push_back(v);
    }
    launch.blocks.reserve(std::min(n_blocks, kReserveChunk));
    for (std::size_t i = 0; i < n_blocks; ++i) {
      BlockStats b;
      if (!(in >> b.thread_insts >> b.warp_insts >> b.mem_requests)) {
        return corrupt(at + "block record " + std::to_string(i) + " unreadable");
      }
      launch.blocks.push_back(b);
    }
    profile.launches.push_back(std::move(launch));
  }
  std::string extra;
  if (in >> extra) return corrupt("trailing garbage after last record");
  return profile;
}

[[nodiscard]] Result<ApplicationProfile> parse_text(std::string_view text) {
  Result<std::string> body = io::unseal_artifact(text, kFormat);
  if (!body.has_value()) return body.status();
  return parse_body(*body);
}

}  // namespace

void save_profile(const ApplicationProfile& profile, std::ostream& out) {
  out << io::seal_artifact(kFormat.magic, serialize_body(profile));
}

Status save_profile_file(const ApplicationProfile& profile,
                         const std::string& path) {
  return io::write_file_atomic(
      path, io::seal_artifact(kFormat.magic, serialize_body(profile)));
}

Result<ApplicationProfile> load_profile(std::istream& in) {
  Result<std::string> text = io::read_stream_limited(in);
  if (!text.has_value()) return text.status();
  return parse_text(*text);
}

Result<ApplicationProfile> load_profile_file(const std::string& path) {
  Result<std::string> text = io::read_file_limited(path);
  if (!text.has_value()) return text.status();
  return parse_text(*text);
}

}  // namespace tbp::profile
