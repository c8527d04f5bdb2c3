#include "harness/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

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

CommonFlags parse_common_flags(int argc, char** argv,
                               const std::vector<std::string>& extra_allowed) {
  CommonFlags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept the --name=value spelling for every flag.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    const auto take_value = [&]() -> std::string {
      if (has_inline) return inline_value;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--scale") {
      const Result<std::uint32_t> divisor = parse_u32(take_value());
      if (!divisor.has_value()) {
        std::fprintf(stderr, "%s: invalid value for --scale: %s\n", argv[0],
                     divisor.status().message().c_str());
        std::exit(2);
      }
      flags.scale.divisor = *divisor;
      if (const Status st = validate_scale(flags.scale); !st.ok()) {
        std::fprintf(stderr, "%s: invalid value for --scale: %s\n", argv[0],
                     st.message().c_str());
        std::exit(2);
      }
    } else if (arg == "--seed") {
      const Result<std::uint64_t> seed = parse_u64(take_value(), 0);
      if (!seed.has_value()) {
        std::fprintf(stderr, "%s: invalid value for --seed: %s\n", argv[0],
                     seed.status().message().c_str());
        std::exit(2);
      }
      flags.scale.seed = *seed;
    } else if (arg == "--benchmarks") {
      flags.benchmarks = split_commas(take_value());
      for (const std::string& name : flags.benchmarks) {
        const auto& known = workloads::workload_names();
        if (std::find(known.begin(), known.end(), name) == known.end()) {
          std::fprintf(stderr, "%s: unknown benchmark '%s'\n", argv[0],
                       name.c_str());
          std::exit(2);
        }
      }
    } else if (arg == "--no-cache") {
      flags.cache_dir.clear();
    } else if (arg == "--cache-dir") {
      flags.cache_dir = take_value();
    } else if (arg == "--jobs") {
      const Result<std::uint32_t> jobs = parse_u32(take_value());
      if (!jobs.has_value() || *jobs == 0) {
        std::fprintf(stderr, "%s: invalid value for --jobs: %s\n", argv[0],
                     jobs.has_value() ? "must be >= 1"
                                      : jobs.status().message().c_str());
        std::exit(2);
      }
      flags.jobs = *jobs;
    } else if (arg == "--metrics") {
      flags.metrics_path = take_value();
    } else if (arg == "--trace") {
      flags.trace_path = take_value();
    } else if (arg == "--manifest") {
      flags.manifest_path = take_value();
    } else if (arg == "--perf-json") {
      flags.perf_json_path = take_value();
    } else {
      const bool allowed =
          std::any_of(extra_allowed.begin(), extra_allowed.end(),
                      [&](const std::string& a) { return a == arg; });
      if (allowed) {
        // Extra flags may take a value; skip it if it does not look like a
        // flag itself (a --name=value flag already carries its own).
        if (!has_inline && i + 1 < argc &&
            std::strncmp(argv[i + 1], "--", 2) != 0) {
          ++i;
        }
        continue;
      }
      std::fprintf(stderr,
                   "usage: %s [--scale N] [--seed S] [--benchmarks a,b,...] "
                   "[--no-cache] [--cache-dir PATH] [--jobs N] "
                   "[--metrics PATH] [--trace PATH] [--manifest PATH] "
                   "[--perf-json PATH]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  return flags;
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

std::string flag_value(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (name == arg) {
      if (i + 1 < argc) return argv[i + 1];
      return fallback;
    }
    if (arg.size() > name.size() + 1 &&
        arg.compare(0, name.size(), name) == 0 && arg[name.size()] == '=') {
      return arg.substr(name.size() + 1);
    }
  }
  return fallback;
}

}  // namespace tbp::harness
