#include "harness/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

namespace tbp::harness {
namespace {

[[nodiscard]] std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

Result<std::uint64_t> parse_u64(const std::string& text, int base) {
  const auto reject = [&](const char* why) {
    return Status(StatusCode::kInvalidArgument,
                  "'" + text + "' is not a valid number (" + why + ")");
  };
  if (text.empty()) return reject("empty");
  // strtoull silently wraps negatives; reject any leading sign/space.
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) {
    return reject("must start with a digit");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (errno == ERANGE) return reject("out of range");
  if (end != text.c_str() + text.size()) return reject("trailing characters");
  return static_cast<std::uint64_t>(value);
}

Result<std::uint32_t> parse_u32(const std::string& text) {
  Result<std::uint64_t> wide = parse_u64(text);
  if (!wide.has_value()) return wide.status();
  if (*wide > std::numeric_limits<std::uint32_t>::max()) {
    return Status(StatusCode::kInvalidArgument,
                  "'" + text + "' is not a valid number (out of range)");
  }
  return static_cast<std::uint32_t>(*wide);
}

Result<double> parse_double(const std::string& text) {
  const auto reject = [&](const char* why) {
    return Status(StatusCode::kInvalidArgument,
                  "'" + text + "' is not a valid number (" + why + ")");
  };
  if (text.empty()) return reject("empty");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE) return reject("out of range");
  if (end != text.c_str() + text.size()) return reject("trailing characters");
  return value;
}

Status validate_scale(const workloads::WorkloadScale& scale) {
  if (scale.divisor == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "scale divisor must be >= 1 (0 would be silently clamped)");
  }
  return Status::ok_status();
}

Status validate_gpu_size(std::uint64_t value) {
  if (value == 0 || value > 1024) {
    return Status(StatusCode::kInvalidArgument, "must be in [1, 1024]");
  }
  return Status::ok_status();
}

Args::Args(int argc, char** argv, std::string tool, std::string_view synopsis)
    : tool_(std::move(tool)),
      usage_("usage: " + tool_ + " " + std::string(synopsis)) {
  for (int i = 1; i < argc; ++i) tokens_.emplace_back(argv[i]);
  read_.assign(tokens_.size(), false);
  while (n_positionals_ < tokens_.size() &&
         !tokens_[n_positionals_].starts_with('-')) {
    ++n_positionals_;
  }
}

std::string Args::positional() {
  if (next_positional_ == n_positionals_) return {};
  read_[next_positional_] = true;
  return tokens_[next_positional_++];
}

std::size_t Args::find(std::string_view name) {
  std::size_t found = std::string::npos;
  for (std::size_t i = n_positionals_; i < tokens_.size(); ++i) {
    const std::string_view token = tokens_[i];
    if (!token.starts_with(name) ||
        (token.size() > name.size() && token[name.size()] != '=')) {
      continue;
    }
    if (found != std::string::npos) {
      usage_error(std::string(name) + " given twice");
    }
    found = i;
  }
  if (found != std::string::npos) read_[found] = true;
  return found;
}

bool Args::flag(std::string_view name) {
  const std::size_t at = find(name);
  if (at == std::string::npos) return false;
  if (tokens_[at] != name) usage_error(std::string(name) + " takes no value");
  return true;
}

std::optional<std::string> Args::value(std::string_view name) {
  const std::size_t at = find(name);
  if (at == std::string::npos) return std::nullopt;
  std::string text;
  if (tokens_[at].size() > name.size()) {
    text = tokens_[at].substr(name.size() + 1);
  } else if (at + 1 < tokens_.size() && !tokens_[at + 1].starts_with("--")) {
    read_[at + 1] = true;
    text = tokens_[at + 1];
  }
  if (text.empty()) die("missing value for " + std::string(name));
  return text;
}

std::optional<std::uint64_t> Args::u64(std::string_view name, int base) {
  const std::optional<std::string> text = value(name);
  if (!text) return std::nullopt;
  const Result<std::uint64_t> parsed = parse_u64(*text, base);
  check(name, parsed.status());
  return *parsed;
}

std::optional<std::uint32_t> Args::u32(std::string_view name) {
  const std::optional<std::string> text = value(name);
  if (!text) return std::nullopt;
  const Result<std::uint32_t> parsed = parse_u32(*text);
  check(name, parsed.status());
  return *parsed;
}

std::optional<double> Args::real(std::string_view name) {
  const std::optional<std::string> text = value(name);
  if (!text) return std::nullopt;
  const Result<double> parsed = parse_double(*text);
  check(name, parsed.status());
  return *parsed;
}

void Args::finish() const {
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (read_[i]) continue;
    const std::string& token = tokens_[i];
    if (token.starts_with('-')) {
      usage_error("unknown flag " + token.substr(0, token.find('=')));
    }
    usage_error("unexpected argument '" + token + "'");
  }
}

void Args::check(std::string_view name, const Status& status) const {
  if (!status.ok()) bad_value(name, status.message());
}

void Args::bad_value(std::string_view name, const std::string& why) const {
  die("invalid value for " + std::string(name) + ": " + why);
}

void Args::die(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", tool_.c_str(), message.c_str());
  std::exit(2);
}

void Args::usage_error(const std::string& reason) const {
  if (!reason.empty()) {
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), reason.c_str());
  }
  std::fprintf(stderr, "%s\n", usage_.c_str());
  std::exit(2);
}

workloads::WorkloadScale read_scale(Args& args) {
  workloads::WorkloadScale scale = kDefaultScale;
  scale.divisor = args.u32("--scale").value_or(scale.divisor);
  args.check("--scale", validate_scale(scale));
  scale.seed = args.u64("--seed", /*base=*/0).value_or(scale.seed);
  return scale;
}

std::size_t read_jobs(Args& args) {
  const std::uint32_t jobs = args.u32("--jobs").value_or(
      static_cast<std::uint32_t>(par::default_jobs()));
  if (jobs == 0) args.bad_value("--jobs", "must be >= 1");
  return jobs;
}

std::vector<std::string> read_benchmarks(Args& args,
                                         std::vector<std::string> fallback) {
  const std::optional<std::string> list = args.value("--benchmarks");
  if (!list) return fallback;
  std::vector<std::string> names = split_commas(*list);
  const std::vector<std::string>& known = workloads::workload_names();
  for (const std::string& name : names) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      args.die("unknown benchmark '" + name + "'");
    }
  }
  return names;
}

CommonFlags parse_common_flags(Args& args) {
  CommonFlags flags;
  flags.scale = read_scale(args);
  flags.benchmarks = read_benchmarks(args, {});
  flags.cache_dir = args.value("--cache-dir").value_or(flags.cache_dir);
  if (args.flag("--no-cache")) flags.cache_dir.clear();
  flags.jobs = read_jobs(args);
  flags.metrics_path = args.value("--metrics").value_or("");
  flags.trace_path = args.value("--trace").value_or("");
  flags.manifest_path = args.value("--manifest").value_or("");
  flags.perf_json_path = args.value("--perf-json").value_or("");
  return flags;
}

}  // namespace tbp::harness
