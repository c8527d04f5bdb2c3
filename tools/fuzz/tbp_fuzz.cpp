// tbp-fuzz — seeded random-workload fuzzing with differential verification.
//
//   tbp-fuzz run     [--seeds N] [--base-seed S] [--jobs N] [--sms S]
//                    [--err-bound PCT] [--parallel-jobs N] [--no-parallel]
//                    [--no-shrink] [--out DIR] [--json PATH]
//       Runs a campaign of N seeds (default 25) derived from the base seed:
//       each seed is expanded into a random multi-launch workload, checked
//       against the differential oracles (trace validity, TBPoint-vs-full
//       accuracy with error attribution, profiler-vs-simulator instruction
//       counts, serial-vs-parallel byte identity) and, on failure,
//       minimized.  Each failing seed's shrunk spec is written to
//       <out>/repro-<seed16hex>.json as a sealed tbp-fuzz-repro-v1 file.
//       Exit 0 when every seed passes, 1 on any violation, 2 on usage error.
//   tbp-fuzz replay  <repro.json|seed> [--sms S] [--err-bound PCT] ...
//       Re-checks one reproducer file (or one literal seed, 0x-prefixed or
//       decimal) and prints the violations.  Exit codes as above.
//   tbp-fuzz corpus  <seeds.txt> [--sms S] [--err-bound PCT] ...
//       Replays every seed listed in a corpus file (one seed per line,
//       0x-prefixed or decimal, '#' comments) — the pinned regression
//       corpus tests/fuzz/corpus/pinned_seeds.txt runs under ctest.
//
// Everything is deterministic: the same flags produce the same verdicts,
// the same reproducer bytes and the same --json output for every --jobs
// value (the campaign writes per-seed indexed slots; each seed's oracle
// work fixes its own internal jobs values independently of --jobs).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/spec_io.hpp"
#include "harness/cli.hpp"
#include "sim/config.hpp"
#include "support/parallel.hpp"

namespace {

using namespace tbp;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tbp-fuzz <run|replay|corpus> [args...]\n"
               "(see the header of tools/fuzz/tbp_fuzz.cpp)\n");
  std::exit(2);
}

[[noreturn]] void bad_flag_value(const std::string& name, const Status& status) {
  std::fprintf(stderr, "tbp-fuzz: invalid value for %s: %s\n", name.c_str(),
               status.message().c_str());
  std::exit(2);
}

std::uint32_t flag_u32(int argc, char** argv, const std::string& name,
                       std::uint32_t fb) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fb;
  const Result<std::uint32_t> parsed = harness::parse_u32(v);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

std::uint64_t flag_u64(int argc, char** argv, const std::string& name,
                       std::uint64_t fb, int base = 10) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fb;
  const Result<std::uint64_t> parsed = harness::parse_u64(v, base);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

double flag_double(int argc, char** argv, const std::string& name, double fb) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fb;
  const Result<double> parsed = harness::parse_double(v);
  if (!parsed.has_value()) bad_flag_value(name, parsed.status());
  return *parsed;
}

/// Flags shared by all three subcommands.
struct FuzzFlags {
  sim::GpuConfig config;
  fuzz::CampaignOptions options;
  std::string out_dir = ".";
  std::string json_path;
};

FuzzFlags parse_flags(int argc, char** argv) {
  FuzzFlags flags;
  // A small configuration keeps each seed's two full simulations cheap;
  // determinism and accuracy contracts are SM-count independent.
  flags.config = sim::scaled_config(48, flag_u32(argc, argv, "--sms", 4));
  flags.options.n_seeds = flag_u64(argc, argv, "--seeds", 25);
  flags.options.base_seed =
      flag_u64(argc, argv, "--base-seed", 0x7b90147, /*base=*/0);
  flags.options.jobs =
      flag_u64(argc, argv, "--jobs", par::default_jobs());
  if (flags.options.jobs == 0) flags.options.jobs = 1;
  flags.options.bounds.max_tbpoint_err_pct =
      flag_double(argc, argv, "--err-bound",
                  flags.options.bounds.max_tbpoint_err_pct);
  flags.options.bounds.parallel_jobs =
      flag_u64(argc, argv, "--parallel-jobs", 4);
  if (harness::has_flag(argc, argv, "--no-parallel")) {
    flags.options.bounds.run_parallel = false;
  }
  if (harness::has_flag(argc, argv, "--no-shrink")) {
    flags.options.shrink_failures = false;
  }
  flags.out_dir = harness::flag_value(argc, argv, "--out", ".");
  flags.json_path = harness::flag_value(argc, argv, "--json", "");
  return flags;
}

void print_outcome(const fuzz::SeedOutcome& outcome) {
  if (outcome.ok) {
    std::printf("seed %016llx: ok (tbpoint err %.2f%%)\n",
                static_cast<unsigned long long>(outcome.seed),
                outcome.tbpoint_err_pct);
    return;
  }
  std::printf("seed %016llx: FAIL [%s]%s\n",
              static_cast<unsigned long long>(outcome.seed),
              outcome.violation_tag.c_str(),
              outcome.shrunk ? " (minimized)" : "");
  for (const fuzz::OracleViolation& v : outcome.violations) {
    std::printf("  %s: %s\n", fuzz::oracle_stage_name(v.stage),
                v.detail.c_str());
  }
}

/// Writes the failing outcome's reproducer file; returns its path.
std::string write_reproducer(const fuzz::SeedOutcome& outcome,
                             const std::string& out_dir) {
  const std::string path =
      out_dir + "/repro-" + fuzz::seed_workload_name(outcome.seed).substr(5) +
      ".json";
  const Status written = fuzz::save_reproducer(
      outcome.repro_spec, outcome.seed, outcome.violation_tag, path);
  if (!written.ok()) {
    std::fprintf(stderr, "tbp-fuzz: cannot write %s: %s\n", path.c_str(),
                 written.to_string().c_str());
  }
  return path;
}

int report_and_exit_code(const FuzzFlags& flags,
                         const fuzz::CampaignResult& result) {
  for (const fuzz::SeedOutcome& outcome : result.outcomes) {
    print_outcome(outcome);
    if (!outcome.ok) {
      const std::string path = write_reproducer(outcome, flags.out_dir);
      std::printf("  reproducer: %s\n", path.c_str());
    }
  }
  if (!flags.json_path.empty()) {
    const obs::JsonValue body =
        fuzz::campaign_to_value(flags.options, result);
    const Status written = obs::write_json_file(
        obs::seal_json("tbp-fuzz-campaign-v1", body), flags.json_path);
    if (!written.ok()) {
      std::fprintf(stderr, "tbp-fuzz: cannot write %s: %s\n",
                   flags.json_path.c_str(), written.to_string().c_str());
      return 1;
    }
  }
  const std::size_t failures = result.n_failures();
  std::printf("%zu/%zu seeds ok\n", result.outcomes.size() - failures,
              result.outcomes.size());
  return failures == 0 ? 0 : 1;
}

int cmd_run(int argc, char** argv) {
  const FuzzFlags flags = parse_flags(argc, argv);
  const fuzz::CampaignResult result =
      fuzz::run_campaign(flags.config, flags.options);
  return report_and_exit_code(flags, result);
}

/// Replays one literal seed through the campaign's per-seed path.
fuzz::SeedOutcome replay_seed(std::uint64_t seed, const FuzzFlags& flags) {
  return fuzz::check_seed(seed, flags.config, flags.options);
}

int cmd_replay(int argc, char** argv) {
  if (argc < 3) usage();
  const std::string target = argv[2];
  const FuzzFlags flags = parse_flags(argc, argv);

  // A bare seed replays through the generator; a file replays its pinned
  // spec (which survives generator evolution).
  const Result<std::uint64_t> as_seed = harness::parse_u64(target, /*base=*/0);
  fuzz::CampaignResult result;
  if (as_seed.has_value()) {
    result.outcomes.push_back(replay_seed(*as_seed, flags));
  } else {
    const Result<fuzz::Reproducer> repro = fuzz::load_reproducer(target);
    if (!repro.has_value()) {
      std::fprintf(stderr, "tbp-fuzz: cannot load %s: %s\n", target.c_str(),
                   repro.status().to_string().c_str());
      return 2;
    }
    fuzz::SeedOutcome outcome;
    outcome.seed = repro->seed;
    const fuzz::OracleReport report = fuzz::check_workload(
        repro->spec, flags.config, flags.options.bounds);
    outcome.tbpoint_err_pct = report.row.tbpoint.err_pct;
    if (!report.ok()) {
      outcome.ok = false;
      outcome.violation_tag = report.violation_tag();
      outcome.violations = report.violations;
      outcome.repro_spec = repro->spec;
    }
    result.outcomes.push_back(std::move(outcome));
  }
  return report_and_exit_code(flags, result);
}

int cmd_corpus(int argc, char** argv) {
  if (argc < 3) usage();
  const FuzzFlags flags = parse_flags(argc, argv);

  std::ifstream in(argv[2]);
  if (!in) {
    std::fprintf(stderr, "tbp-fuzz: cannot open corpus file %s\n", argv[2]);
    return 2;
  }
  std::vector<std::uint64_t> seeds;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    const Result<std::uint64_t> seed =
        harness::parse_u64(line.substr(start, end - start + 1), /*base=*/0);
    if (!seed.has_value()) {
      std::fprintf(stderr, "tbp-fuzz: bad corpus line '%s': %s\n",
                   line.c_str(), seed.status().message().c_str());
      return 2;
    }
    seeds.push_back(*seed);
  }

  fuzz::CampaignResult result;
  result.outcomes.resize(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    result.outcomes[i] = replay_seed(seeds[i], flags);
  }
  return report_and_exit_code(flags, result);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  if (command == "run") return cmd_run(argc, argv);
  if (command == "replay") return cmd_replay(argc, argv);
  if (command == "corpus") return cmd_corpus(argc, argv);
  usage();
}
