// tbp-client — submit sampling requests to a tbpointd spool and collect
// the sealed manifest responses.
//
//   tbp-client submit <workload> --spool DIR [--scale N] [--seed S]
//              [--sms N] [--warps N] [--gto] [--id ID]
//              [--wait] [--timeout-s N] [-o PATH]
//       Drop one tbp-request-v1 line into the spool inbox.  Prints the
//       request id.  With --wait, polls for the response and writes it to
//       PATH (or stdout).
//   tbp-client wait <id> --spool DIR [--timeout-s N] [-o PATH]
//       Collect the response for a previously submitted id.
//
// The spec flags are read as tbpoint_cli reads them (--sms and --warps in
// [1, 1024], and an SM must hold one thread block of the workload); any
// other flag or a stray argument is a usage error.
//
// Exit codes: 0 response delivered, 1 service reported an error (the error
// document is still written), 2 usage error or timeout.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "harness/cli.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"
#include "support/atomic_file.hpp"
#include "support/walltime.hpp"

namespace {

using namespace tbp;

constexpr std::string_view kSynopsis =
    "submit <workload> --spool DIR [--scale N] [--seed S] [--sms N] "
    "[--warps N] [--gto] [--id ID] [--wait] [--timeout-s N] [-o PATH]\n"
    "       tbp-client wait <id> --spool DIR [--timeout-s N] [-o PATH]";

/// Where and how long to wait for a response: --spool DIR (required),
/// --timeout-s N and -o PATH.
struct WaitFlags {
  std::string spool;
  double timeout_s = 0;
  std::string out_path;
};

WaitFlags read_wait_flags(harness::Args& args) {
  WaitFlags flags;
  const std::optional<std::string> spool = args.value("--spool");
  if (!spool) args.usage_error();
  flags.spool = *spool;
  flags.timeout_s = static_cast<double>(args.u64("--timeout-s").value_or(300));
  flags.out_path = args.value("-o").value_or("");
  return flags;
}

/// Unique-enough default request id: fingerprint prefix (groups related
/// requests visibly in the spool) + pid + an in-process sequence number.
std::string default_request_id(const std::string& fingerprint) {
  static std::atomic<std::uint64_t> sequence{0};
  return fingerprint.substr(0, 12) + "-p" + std::to_string(::getpid()) + "-" +
         std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
}

/// Delivers response bytes to -o PATH or stdout; exit code 1 when the
/// response is a service error document.
int deliver_response(const std::string& out_path, const std::string& bytes) {
  if (!out_path.empty()) {
    const Status wrote =
        io::write_file_atomic(std::filesystem::path(out_path), bytes);
    if (!wrote.ok()) {
      std::fprintf(stderr, "tbp-client: cannot write %s: %s\n",
                   out_path.c_str(), wrote.to_string().c_str());
      return 2;
    }
  } else {
    std::fwrite(bytes.data(), 1, bytes.size(), stdout);
  }
  const Status service_error = service::response_error(bytes);
  if (!service_error.ok()) {
    std::fprintf(stderr, "tbp-client: service error: %s\n",
                 service_error.to_string().c_str());
    return 1;
  }
  return 0;
}

/// Polls the spool outbox until the response lands or the timeout passes.
int wait_for_response(const WaitFlags& flags, const std::string& id) {
  const timing::WallTimer timer;
  for (;;) {
    Result<std::string> response =
        service::try_read_response(std::filesystem::path(flags.spool), id);
    if (response.has_value()) {
      return deliver_response(flags.out_path, *response);
    }
    if (response.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "tbp-client: %s\n",
                   response.status().to_string().c_str());
      return 2;
    }
    if (timer.seconds() > flags.timeout_s) {
      std::fprintf(stderr, "tbp-client: timed out after %.0fs waiting for %s\n",
                   flags.timeout_s, id.c_str());
      return 2;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

int cmd_submit(harness::Args& args) {
  const std::string workload = args.positional();
  if (workload.empty()) args.usage_error();
  const service::RequestSpec spec = service::read_spec(args, workload);
  std::string id = args.value("--id").value_or("");
  const bool wait = args.flag("--wait");
  const WaitFlags wait_flags = read_wait_flags(args);
  args.finish();

  // Validate locally (round-trip through the wire parser) so typos fail
  // here with a message instead of as a spooled error response.
  const std::string line = service::spec_canonical_line(spec);
  if (const Result<service::RequestSpec> parsed =
          service::parse_request(line);
      !parsed.has_value()) {
    std::fprintf(stderr, "tbp-client: %s\n",
                 parsed.status().to_string().c_str());
    return 2;
  }

  if (id.empty()) id = default_request_id(service::spec_store_key(spec).id);
  if (!service::valid_request_id(id)) {
    std::fprintf(stderr, "tbp-client: invalid request id '%s'\n", id.c_str());
    return 2;
  }

  const Status submitted =
      service::submit_request(std::filesystem::path(wait_flags.spool), id,
                              line);
  if (!submitted.ok()) {
    std::fprintf(stderr, "tbp-client: %s\n", submitted.to_string().c_str());
    return 2;
  }
  std::printf("submitted %s\n", id.c_str());
  std::fflush(stdout);

  if (!wait) return 0;
  return wait_for_response(wait_flags, id);
}

int cmd_wait(harness::Args& args) {
  const std::string id = args.positional();
  if (id.empty()) args.usage_error();
  const WaitFlags flags = read_wait_flags(args);
  args.finish();
  if (!service::valid_request_id(id)) {
    std::fprintf(stderr, "tbp-client: invalid request id '%s'\n", id.c_str());
    return 2;
  }
  return wait_for_response(flags, id);
}

}  // namespace

int main(int argc, char** argv) {
  harness::Args args(argc, argv, "tbp-client", kSynopsis);
  const std::string command = args.positional();
  if (command == "submit") return cmd_submit(args);
  if (command == "wait") return cmd_wait(args);
  args.usage_error();
}
