#include "support/atomic_file.hpp"

#include <unistd.h>

#include <atomic>
#include <fstream>

namespace tbp::io {
namespace {

/// Unique-enough temp suffix: pid (distinct concurrent processes) plus a
/// process-local counter (distinct writes within one process).
[[nodiscard]] std::string temp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

Status write_file_atomic(const std::filesystem::path& path,
                         std::string_view payload) {
  std::error_code ec;
  const std::filesystem::path dir = path.parent_path();
  if (!dir.empty()) {
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status(StatusCode::kIoError, "cannot create directory " +
                                              dir.string() + ": " + ec.message());
    }
  }

  const std::filesystem::path tmp = path.string() + temp_suffix();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status(StatusCode::kIoError, "cannot open " + tmp.string());
    }
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::filesystem::remove(tmp, ec);
      return Status(StatusCode::kIoError, "short write to " + tmp.string());
    }
  }

  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp, ignore);
    return Status(StatusCode::kIoError, "cannot rename " + tmp.string() +
                                            " -> " + path.string() + ": " +
                                            ec.message());
  }
  return Status();
}

Result<std::string> read_file_limited(const std::filesystem::path& path,
                                      std::uint64_t max_bytes) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) {
    return Status(StatusCode::kNotFound, path.string() + " does not exist");
  }
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    return Status(StatusCode::kIoError,
                  "cannot stat " + path.string() + ": " + ec.message());
  }
  if (size > max_bytes) {
    return Status(StatusCode::kTooLarge,
                  path.string() + " is " + std::to_string(size) +
                      " bytes (cap " + std::to_string(max_bytes) + ")");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kIoError, "cannot open " + path.string());
  }
  std::string data(static_cast<std::size_t>(size), '\0');
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  if (static_cast<std::uintmax_t>(in.gcount()) != size) {
    return Status(StatusCode::kIoError, "short read from " + path.string());
  }
  return data;
}

}  // namespace tbp::io
