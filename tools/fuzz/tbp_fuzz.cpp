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
//   tbp-fuzz replay  <repro.json|seed> [run flags but --seeds/--base-seed/--jobs]
//       Re-checks one reproducer file (or one literal seed, 0x-prefixed or
//       decimal) and prints the violations.  Exit codes as above.
//   tbp-fuzz corpus  <seeds.txt> [the flags of replay]
//       Replays every seed listed in a corpus file (one seed per line,
//       0x-prefixed or decimal, '#' comments) — the pinned regression
//       corpus tests/fuzz/corpus/pinned_seeds.txt runs under ctest.
//
// --sms S (default 4) must be in [1, 1024], --jobs N (default: hardware
// concurrency) >= 1.  Any flag not listed for the subcommand, a malformed
// number or a stray argument is a usage error (exit 2) before any seed runs.
//
// Everything is deterministic: the same flags produce the same verdicts,
// the same reproducer bytes and the same --json output for every --jobs
// value (the campaign writes per-seed indexed slots; each seed's oracle
// work fixes its own internal jobs values independently of --jobs).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/spec_io.hpp"
#include "harness/cli.hpp"
#include "sim/config.hpp"

namespace {

using namespace tbp;

constexpr std::string_view kSynopsis =
    "<run|replay|corpus> [args...]\n"
    "(see the header of tools/fuzz/tbp_fuzz.cpp)";

/// The flags of every subcommand.
struct FuzzFlags {
  sim::GpuConfig config;
  fuzz::CampaignOptions options;
  std::string out_dir = ".";
  std::string json_path;
};

/// Reads the flags replay and corpus take; run reads these too.
FuzzFlags read_check_flags(harness::Args& args) {
  FuzzFlags flags;
  // A small configuration keeps each seed's two full simulations cheap;
  // determinism and accuracy contracts are SM-count independent.
  const std::uint32_t sms = args.u32("--sms").value_or(4);
  args.check("--sms", harness::validate_gpu_size(sms));
  flags.config = sim::scaled_config(48, sms);
  fuzz::OracleBounds& bounds = flags.options.bounds;
  bounds.max_tbpoint_err_pct =
      args.real("--err-bound").value_or(bounds.max_tbpoint_err_pct);
  bounds.parallel_jobs =
      args.u64("--parallel-jobs").value_or(bounds.parallel_jobs);
  bounds.run_parallel = !args.flag("--no-parallel");
  flags.options.shrink_failures = !args.flag("--no-shrink");
  flags.out_dir = args.value("--out").value_or(flags.out_dir);
  flags.json_path = args.value("--json").value_or("");
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

int cmd_run(harness::Args& args) {
  FuzzFlags flags = read_check_flags(args);
  flags.options.n_seeds = args.u64("--seeds").value_or(flags.options.n_seeds);
  flags.options.base_seed =
      args.u64("--base-seed", /*base=*/0).value_or(flags.options.base_seed);
  flags.options.jobs = harness::read_jobs(args);
  args.finish();
  const fuzz::CampaignResult result =
      fuzz::run_campaign(flags.config, flags.options);
  return report_and_exit_code(flags, result);
}

/// Replays one literal seed through the campaign's per-seed path.
fuzz::SeedOutcome replay_seed(std::uint64_t seed, const FuzzFlags& flags) {
  return fuzz::check_seed(seed, flags.config, flags.options);
}

int cmd_replay(harness::Args& args) {
  const std::string target = args.positional();
  if (target.empty()) args.usage_error();
  const FuzzFlags flags = read_check_flags(args);
  args.finish();

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

int cmd_corpus(harness::Args& args) {
  const std::string path = args.positional();
  if (path.empty()) args.usage_error();
  const FuzzFlags flags = read_check_flags(args);
  args.finish();

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "tbp-fuzz: cannot open corpus file %s\n",
                 path.c_str());
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
  harness::Args args(argc, argv, "tbp-fuzz", kSynopsis);
  const std::string command = args.positional();
  if (command == "run") return cmd_run(args);
  if (command == "replay") return cmd_replay(args);
  if (command == "corpus") return cmd_corpus(args);
  args.usage_error();
}
