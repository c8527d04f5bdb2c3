#include "service/request.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "harness/cli.hpp"
#include "harness/manifest.hpp"
#include "trace/occupancy.hpp"

namespace tbp::service {
namespace {

[[nodiscard]] Status invalid(std::string why) {
  return Status(StatusCode::kInvalidArgument,
                "tbp-request: " + std::move(why));
}

/// Strict unsigned extraction: the value must be a non-negative integral
/// number (no fractions, no negatives smuggled through as_u64's clamping).
[[nodiscard]] bool read_u64(const obs::JsonValue& value, std::uint64_t* out) {
  if (!value.is_number()) return false;
  const double d = value.as_double();
  *out = value.as_u64();
  return d >= 0.0 && d == static_cast<double>(*out);
}

/// OK when one SM of the spec's machine holds a thread block of every
/// launch of its workload.  Only the warp count sizes an SM here: the
/// 512-thread workloads need at least 16 warps, the 256-thread ones 8.
[[nodiscard]] Status check_block_fits(const RequestSpec& spec) {
  const trace::SmResources resources = spec_gpu_config(spec).sm_resources;
  const workloads::Workload workload =
      workloads::make_workload(spec.workload, spec.scale);
  for (const auto& launch : workload.launches) {
    const trace::KernelInfo& kernel = launch->kernel();
    if (trace::sm_occupancy(kernel, resources) == 0) {
      return Status(StatusCode::kInvalidArgument,
                    "too small for kernel " + kernel.name +
                        ", whose thread blocks have " +
                        std::to_string(kernel.warps_per_block()) + " warps");
    }
  }
  return Status();
}

}  // namespace

Result<RequestSpec> parse_request(std::string_view text) {
  Result<obs::JsonValue> parsed = obs::json_parse(text);
  if (!parsed.has_value()) {
    return invalid("unparseable JSON: " + parsed.status().message());
  }
  if (!parsed->is_object()) return invalid("request must be a JSON object");

  const obs::JsonValue* schema = parsed->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return invalid("missing schema tag");
  }
  if (schema->as_string() != kRequestSchema) {
    return Status(StatusCode::kVersionMismatch,
                  "tbp-request: unsupported schema '" + schema->as_string() +
                      "' (want " + std::string(kRequestSchema) + ")");
  }

  RequestSpec spec;
  for (const auto& [key, value] : parsed->members()) {
    if (key == "schema") continue;
    if (key == "command") {
      if (!value.is_string() || value.as_string() != "compare") {
        return invalid("unsupported command (v1 speaks only \"compare\")");
      }
      continue;
    }
    if (key == "workload") {
      if (!value.is_string()) return invalid("workload must be a string");
      spec.workload = value.as_string();
      continue;
    }
    if (key == "scale_divisor") {
      std::uint64_t divisor = 0;
      if (!read_u64(value, &divisor) || divisor == 0 ||
          divisor > 0xFFFFFFFFull) {
        return invalid("scale_divisor must be a positive 32-bit integer");
      }
      spec.scale.divisor = static_cast<std::uint32_t>(divisor);
      continue;
    }
    if (key == "seed") {
      if (!read_u64(value, &spec.scale.seed)) {
        return invalid("seed must be a non-negative integer");
      }
      continue;
    }
    if (key == "sms" || key == "warps") {
      std::uint64_t size = 0;
      if (!read_u64(value, &size)) size = 0;  // so a non-integer fails too
      if (const Status st = harness::validate_gpu_size(size); !st.ok()) {
        return invalid(key + " " + st.message());
      }
      (key == "sms" ? spec.sms : spec.warps) = static_cast<std::uint32_t>(size);
      continue;
    }
    if (key == "gto") {
      if (!value.is_bool()) return invalid("gto must be a boolean");
      spec.gto = value.as_bool();
      continue;
    }
    return invalid("unknown key '" + key + "'");
  }

  if (spec.workload.empty()) return invalid("missing workload");
  const std::vector<std::string>& names = workloads::workload_names();
  if (std::find(names.begin(), names.end(), spec.workload) == names.end()) {
    return invalid("unknown workload '" + spec.workload + "'");
  }
  if (const Status st = check_block_fits(spec); !st.ok()) {
    return invalid("warps " + st.message());
  }
  return spec;
}

obs::JsonValue spec_to_value(const RequestSpec& spec) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("schema", std::string(kRequestSchema));
  out.set("command", std::string("compare"));
  out.set("workload", spec.workload);
  out.set("scale_divisor", std::uint64_t{spec.scale.divisor});
  out.set("seed", spec.scale.seed);
  out.set("sms", std::uint64_t{spec.sms});
  out.set("warps", std::uint64_t{spec.warps});
  out.set("gto", spec.gto);
  return out;
}

std::string spec_canonical_line(const RequestSpec& spec) {
  return obs::json_serialize(spec_to_value(spec));
}

store::StoreKey spec_store_key(const RequestSpec& spec) {
  const std::string label =
      spec.workload + "-d" + std::to_string(spec.scale.divisor) + "-sms" +
      std::to_string(spec.sms) + "-w" + std::to_string(spec.warps) +
      (spec.gto ? "-gto" : "");
  return store::make_key(
      "response", obs::kManifestSchema,
      spec_canonical_line(spec) + " model " +
          std::to_string(harness::kModelVersion),
      label);
}

RequestSpec read_spec(harness::Args& args, std::string workload) {
  RequestSpec spec;
  spec.workload = std::move(workload);
  spec.scale = harness::read_scale(args);
  spec.sms = args.u32("--sms").value_or(spec.sms);
  args.check("--sms", harness::validate_gpu_size(spec.sms));
  spec.warps = args.u32("--warps").value_or(spec.warps);
  args.check("--warps", harness::validate_gpu_size(spec.warps));
  spec.gto = args.flag("--gto");
  // An unknown name is left to the caller's own workload check.
  const std::vector<std::string> known = workloads::buildable_workload_names();
  if (std::find(known.begin(), known.end(), spec.workload) != known.end()) {
    args.check("--warps", check_block_fits(spec));
  }
  return spec;
}

sim::GpuConfig spec_gpu_config(const RequestSpec& spec) {
  sim::GpuConfig config = (spec.sms == 14 && spec.warps == 48)
                              ? sim::fermi_config()
                              : sim::scaled_config(spec.warps, spec.sms);
  if (spec.gto) config.scheduler = sim::WarpScheduler::kGreedyThenOldest;
  return config;
}

obs::JsonValue spec_config_value(const RequestSpec& spec) {
  const sim::GpuConfig config = spec_gpu_config(spec);
  obs::JsonValue out = obs::JsonValue::object();
  out.set("workload", spec.workload);
  out.set("scale_divisor", std::uint64_t{spec.scale.divisor});
  out.set("seed", spec.scale.seed);
  obs::JsonValue gpu = obs::JsonValue::object();
  gpu.set("n_sms", std::uint64_t{config.n_sms});
  gpu.set("max_warps_per_sm", std::uint64_t{config.max_warps_per_sm()});
  gpu.set("scheduler",
          config.scheduler == sim::WarpScheduler::kRoundRobin
              ? std::string("round_robin")
              : std::string("greedy_then_oldest"));
  out.set("gpu", std::move(gpu));
  return out;
}

harness::ExperimentRow run_spec(const RequestSpec& spec, std::size_t jobs) {
  harness::ComparisonOptions options;
  options.jobs = jobs == 0 ? 1 : jobs;
  const workloads::Workload workload =
      workloads::make_workload(spec.workload, spec.scale);
  return harness::run_comparison(workload, spec_gpu_config(spec), options);
}

std::string spec_manifest_bytes(const RequestSpec& spec,
                                const harness::ExperimentRow& row) {
  // Mirror the tbpoint_cli --manifest path byte for byte: the same tool /
  // command identity, the same config subtree, an empty metrics snapshot
  // (the CLI without --metrics embeds none), pretty-printed sealed JSON
  // with a trailing newline (obs::write_json_file's file contents).
  const obs::MetricsSnapshot no_metrics;
  const obs::JsonValue body = harness::manifest_body(
      "tbpoint_cli", "compare", spec_config_value(spec),
      std::span<const harness::ExperimentRow>(&row, 1), no_metrics);
  return obs::json_serialize_pretty(
             obs::seal_json(obs::kManifestSchema, body)) +
         "\n";
}

}  // namespace tbp::service
