#include <cstdio>
#include <cstdlib>

#include "workloads/builders.hpp"
#include "workloads/workload.hpp"

namespace tbp::workloads {

namespace {

using Builder = Workload (*)(const WorkloadScale&);
struct Entry {
  std::string_view name;
  Builder builder;
};
constexpr Entry kRegistry[] = {
    {"bfs", detail::make_bfs},         {"sssp", detail::make_sssp},
    {"mst", detail::make_mst},         {"mri", detail::make_mri},
    {"spmv", detail::make_spmv},       {"lbm", detail::make_lbm},
    {"cfd", detail::make_cfd},         {"kmeans", detail::make_kmeans},
    {"hotspot", detail::make_hotspot}, {"stream", detail::make_stream},
    {"black", detail::make_black},     {"conv", detail::make_conv},
    // Fig. 11 companion (single-launch, like hotspot); opt-in by name.
    {"binomial", detail::make_binomial},
};

}  // namespace

std::vector<const trace::LaunchTraceSource*> Workload::sources() const {
  std::vector<const trace::LaunchTraceSource*> out;
  out.reserve(launches.size());
  for (const auto& launch : launches) out.push_back(launch.get());
  return out;
}

std::uint64_t Workload::total_blocks() const noexcept {
  std::uint64_t total = 0;
  for (const auto& launch : launches) total += launch->n_blocks();
  return total;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "bfs",  "sssp",   "mst",     "mri",    "spmv",  "lbm",
      "cfd",  "kmeans", "hotspot", "stream", "black", "conv",
  };
  return names;
}

std::vector<std::string> buildable_workload_names() {
  std::vector<std::string> out;
  for (const Entry& entry : kRegistry) out.emplace_back(entry.name);
  return out;
}

Workload make_workload(std::string_view name, const WorkloadScale& scale) {
  // Strict: a zero divisor is a caller bug (the CLI layers reject it with a
  // Status before it gets here); aborting matches the unknown-name policy
  // below instead of silently clamping to 1 as scaled_blocks used to.
  if (scale.divisor == 0) {
    std::fprintf(stderr, "make_workload: scale divisor must be >= 1\n");
    std::abort();
  }
  for (const Entry& entry : kRegistry) {
    if (entry.name == name) return entry.builder(scale);
  }
  std::fprintf(stderr, "unknown workload: %.*s\n", static_cast<int>(name.size()),
               name.data());
  std::abort();
}

std::vector<Workload> make_all_workloads(const WorkloadScale& scale) {
  std::vector<Workload> out;
  out.reserve(workload_names().size());
  for (const std::string& name : workload_names()) {
    out.push_back(make_workload(name, scale));
  }
  return out;
}

}  // namespace tbp::workloads
