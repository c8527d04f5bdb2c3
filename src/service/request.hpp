// tbpointd request protocol: what one client asks for and how the answer
// is addressed and rendered.
//
// A request is one line of JSON (NDJSON) with the schema tag
// "tbp-request-v1":
//
//   {"command":"compare","gto":false,"scale_divisor":4,"schema":
//    "tbp-request-v1","seed":129564999,"sms":14,"warps":48,"workload":
//    "stream"}
//
// Parsing is strict: unknown keys, wrong types, unknown workloads,
// out-of-range geometry and an SM too small for one thread block of the
// workload are all kInvalidArgument, never guessed at.  Every
// field except `schema` and `workload` is optional and defaults to the
// tbpoint_cli defaults, so a parsed spec always describes exactly the run
// `tbpoint_cli compare <workload> [flags]` would perform.
//
// The *canonical line* of a spec is the sorted-key no-whitespace
// serialization with every field explicit.  Two requests that mean the same
// run always canonicalize to the same bytes — that line is the dedup
// fingerprint and (hashed) the response's store address.
//
// The response wire format is the sealed tbp-manifest-v1 document, byte-
// identical to what `tbpoint_cli compare ... --manifest` writes for the
// same spec (the service acceptance test pins this with cmp).
#pragma once

#include <string>
#include <string_view>

#include "harness/cli.hpp"
#include "harness/experiment.hpp"
#include "obs/report.hpp"
#include "sim/config.hpp"
#include "store/key.hpp"
#include "support/status.hpp"
#include "workloads/workload.hpp"

namespace tbp::service {

inline constexpr std::string_view kRequestSchema = "tbp-request-v1";

/// One fully-defaulted compare request (the only command v1 speaks).
struct RequestSpec {
  std::string workload;
  workloads::WorkloadScale scale = harness::kDefaultScale;
  std::uint32_t sms = 14;
  std::uint32_t warps = 48;
  bool gto = false;
};

/// Strict parse of one request line (see the header comment).
[[nodiscard]] Result<RequestSpec> parse_request(std::string_view text);

/// The spec as its wire-form JSON object (schema tag and every field
/// explicit, alphabetical keys).
[[nodiscard]] obs::JsonValue spec_to_value(const RequestSpec& spec);

/// Canonical fingerprint line: json_serialize(spec_to_value(spec)).
[[nodiscard]] std::string spec_canonical_line(const RequestSpec& spec);

/// Store address of the spec's response manifest.  The manifest schema tag
/// is the codec version and harness::kModelVersion salts the spec, so a
/// manifest format bump or a model change re-computes instead of serving
/// stale bytes.
[[nodiscard]] store::StoreKey spec_store_key(const RequestSpec& spec);

/// The spec of `workload` that a command line names: --scale, --seed,
/// --sms and --warps (each in [1, 1024]; an SM must hold one thread block
/// of the workload) and --gto, as read by tbpoint_cli's run, compare and
/// simulate and by tbp-client submit.
[[nodiscard]] RequestSpec read_spec(harness::Args& args, std::string workload);

/// The GPU configuration the spec names — same rule as tbpoint_cli: the
/// default 14x48 geometry is the calibrated Fermi model, anything else is
/// the scaled config, and --gto swaps the warp scheduler.
[[nodiscard]] sim::GpuConfig spec_gpu_config(const RequestSpec& spec);

/// The manifest "config" subtree, byte-compatible with tbpoint_cli's
/// (workload, scale_divisor, seed, gpu geometry; never jobs).
[[nodiscard]] obs::JsonValue spec_config_value(const RequestSpec& spec);

/// Runs the spec's comparison (the simulation).  `jobs` bounds the worker
/// crew; the row is bit-identical for every value.
[[nodiscard]] harness::ExperimentRow run_spec(const RequestSpec& spec,
                                              std::size_t jobs);

/// The sealed response document for a computed row: exactly the bytes
/// `tbpoint_cli compare <spec flags> --manifest PATH` writes (pretty-
/// printed sealed tbp-manifest-v1 plus trailing newline).
[[nodiscard]] std::string spec_manifest_bytes(const RequestSpec& spec,
                                              const harness::ExperimentRow& row);

}  // namespace tbp::service
