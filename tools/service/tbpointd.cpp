// tbpointd — the batching sampling service daemon.
//
//   tbpointd --spool DIR [--store DIR] [--store-max-bytes N]
//            [--jobs N] [--poll-ms N]
//            [--max-requests N] [--once] [--metrics PATH]
//            [--stats PATH] [--prof PATH]
//
// Watches `<spool>/requests/` for tbp-request-v1 lines dropped by
// tbp-client, answers each with a sealed tbp-manifest-v1 response in
// `<spool>/responses/` (byte-identical to `tbpoint_cli compare ...
// --manifest` for the same request), and keeps every computed response in
// a content-addressed store so repeated and duplicate requests are served
// without re-simulating.  See DESIGN.md "Result store & tbpointd".
//
//   --once            drain the current inbox once and exit
//   --max-requests N  exit after answering N requests (smoke tests)
//   --metrics PATH    write service.* / store.* counters as JSON on exit
//   --stats PATH      also write the sealed tbp-service-stats-v1 ledger here
//   --prof PATH       wall-clock self-profiling: attach a ProfSession and
//                     write the sealed tbp-prof-v1 sidecar on exit
//
// On exit the daemon prints its ledger as one sealed tbp-service-stats-v1
// line on stdout (render it with `tbp-report show`).
//
// SIGINT/SIGTERM finish the in-flight drain pass, then exit cleanly (every
// claimed request is answered; nothing is left half-done).
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <atomic>
#include <memory>
#include <string>

#include "harness/cli.hpp"
#include "obs/export.hpp"
#include "prof/prof.hpp"
#include "prof/sidecar.hpp"
#include "service/daemon.hpp"
#include "service/stats.hpp"
#include "support/parallel.hpp"

namespace {

using namespace tbp;

std::atomic<bool> g_stop{false};

void handle_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tbpointd --spool DIR [--store DIR] "
               "[--store-max-bytes N] [--jobs N] "
               "[--poll-ms N] [--max-requests N] [--once] [--metrics PATH] "
               "[--stats PATH] [--prof PATH]\n");
  std::exit(2);
}

std::uint64_t flag_u64_or_die(int argc, char** argv, const std::string& name,
                              std::uint64_t fallback) {
  const std::string v = harness::flag_value(argc, argv, name, "");
  if (v.empty()) return fallback;
  const Result<std::uint64_t> parsed = harness::parse_u64(v);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "tbpointd: invalid value for %s: %s\n", name.c_str(),
                 parsed.status().message().c_str());
    std::exit(2);
  }
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spool = harness::flag_value(argc, argv, "--spool", "");
  if (spool.empty()) usage();

  service::DaemonOptions options;
  options.spool_dir = spool;
  options.store_dir = harness::flag_value(argc, argv, "--store", "");
  options.store_max_bytes = flag_u64_or_die(argc, argv, "--store-max-bytes",
                                            options.store_max_bytes);
  options.jobs = static_cast<std::size_t>(flag_u64_or_die(
      argc, argv, "--jobs", static_cast<std::uint64_t>(par::default_jobs())));
  options.poll_ms = static_cast<std::uint32_t>(
      flag_u64_or_die(argc, argv, "--poll-ms", options.poll_ms));
  options.max_requests = flag_u64_or_die(argc, argv, "--max-requests", 0);
  if (options.jobs == 0 || options.poll_ms == 0) {
    std::fprintf(stderr, "tbpointd: --jobs and --poll-ms must be >= 1\n");
    return 2;
  }
  par::set_global_jobs(options.jobs);

  const std::string prof_path = harness::flag_value(argc, argv, "--prof", "");
  std::unique_ptr<prof::ProfSession> prof_session;
  if (!prof_path.empty()) {
    prof_session = std::make_unique<prof::ProfSession>();
    options.prof = prof_session.get();
  }

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  service::Daemon daemon(options);
  Status st = daemon.open();
  if (!st.ok()) {
    std::fprintf(stderr, "tbpointd: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("tbpointd: serving spool %s (store %s, jobs %zu)\n",
              options.spool_dir.string().c_str(),
              daemon.response_store().dir().string().c_str(), options.jobs);
  std::fflush(stdout);

  if (harness::has_flag(argc, argv, "--once")) {
    Result<std::size_t> drained = daemon.drain_once();
    if (!drained.has_value()) {
      std::fprintf(stderr, "tbpointd: %s\n",
                   drained.status().to_string().c_str());
      return 1;
    }
  } else {
    st = daemon.serve(g_stop);
    if (!st.ok()) {
      std::fprintf(stderr, "tbpointd: %s\n", st.to_string().c_str());
      return 1;
    }
  }

  // The exit ledger: one sealed tbp-service-stats-v1 line.  Machine-
  // readable (CI greps exact counter values out of it), human-readable via
  // `tbp-report show`.
  const obs::JsonValue stats_body = service::service_stats_body(
      daemon.stats(), daemon.response_store().stats(), prof_session.get());
  std::printf("%s\n", service::service_stats_line(stats_body).c_str());

  if (const std::string stats_path =
          harness::flag_value(argc, argv, "--stats", "");
      !stats_path.empty()) {
    const Status wrote = service::write_service_stats(stats_body, stats_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "tbpointd: cannot write %s: %s\n",
                   stats_path.c_str(), wrote.to_string().c_str());
      return 1;
    }
    std::printf("tbpointd: wrote stats %s\n", stats_path.c_str());
  }

  if (prof_session != nullptr) {
    const Status wrote = prof::write_prof_sidecar(*prof_session, prof_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "tbpointd: cannot write %s: %s\n",
                   prof_path.c_str(), wrote.to_string().c_str());
      return 1;
    }
    std::printf("tbpointd: wrote prof sidecar %s\n", prof_path.c_str());
  }

  if (const std::string metrics_path =
          harness::flag_value(argc, argv, "--metrics", "");
      !metrics_path.empty()) {
    obs::MetricsShard shard;
    daemon.flush_metrics(&shard);
    obs::MetricsSnapshot snapshot;
    snapshot.absorb(shard);
    const Status wrote = obs::write_metrics_file(snapshot, metrics_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "tbpointd: cannot write %s: %s\n",
                   metrics_path.c_str(), wrote.to_string().c_str());
      return 1;
    }
    std::printf("tbpointd: wrote metrics %s\n", metrics_path.c_str());
  }
  return 0;
}
