#include "harness/cache.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "store/store.hpp"
#include "support/artifact.hpp"
#include "support/synchronized.hpp"

namespace tbp::harness {
namespace {

constexpr io::ArtifactFormat kRowFormat{
    .magic = "tbpoint-row-v3",
    .family = "tbpoint-row-",
    .kind = "cache-row",
};

/// FNV-1a over a string; the key embeds readable fields plus this hash of
/// the full option dump, so any option change invalidates the entry.
[[nodiscard]] std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The sealed tbpoint-row-v3 artifact text for a row (also the store
/// payload, so entries stay self-contained and versioned).
[[nodiscard]] std::string serialize_row(const ExperimentRow& row) {
  std::ostringstream out;
  out.precision(17);
  out << row.workload << ' ' << (row.irregular ? 1 : 0) << ' ' << row.n_launches
      << ' ' << row.total_blocks << ' ' << row.total_warp_insts << ' '
      << row.full_ipc << ' ' << row.random.ipc << ' ' << row.random.err_pct << ' '
      << row.random.sample_pct << ' ' << row.simpoint.ipc << ' '
      << row.simpoint.err_pct << ' ' << row.simpoint.sample_pct << ' '
      << row.systematic.ipc << ' ' << row.systematic.err_pct << ' '
      << row.systematic.sample_pct << ' '
      << row.tbpoint.ipc << ' ' << row.tbpoint.err_pct << ' '
      << row.tbpoint.sample_pct << ' ' << row.inter_skip_share << ' '
      << row.simpoint_k << ' ' << row.tbp_clusters << ' ' << row.unit_insts << ' '
      << row.full_sim_seconds << ' ' << row.tbp_seconds << '\n';
  return io::seal_artifact(kRowFormat.magic, out.str());
}

/// Parses a sealed tbpoint-row-v3 artifact.  `context` names the source in
/// error messages.
[[nodiscard]] Result<ExperimentRow> parse_row_text(const std::string& text,
                                                   const std::string& context) {
  Result<std::string> body = io::unseal_artifact(text, kRowFormat);
  if (!body.has_value()) return body.status();
  std::istringstream in(*body);
  ExperimentRow row;
  int irregular = 0;
  if (!(in >> row.workload >> irregular >> row.n_launches >> row.total_blocks >>
        row.total_warp_insts >> row.full_ipc >> row.random.ipc >>
        row.random.err_pct >> row.random.sample_pct >> row.simpoint.ipc >>
        row.simpoint.err_pct >> row.simpoint.sample_pct >> row.systematic.ipc >>
        row.systematic.err_pct >> row.systematic.sample_pct >> row.tbpoint.ipc >>
        row.tbpoint.err_pct >> row.tbpoint.sample_pct >> row.inter_skip_share >>
        row.simpoint_k >> row.tbp_clusters >> row.unit_insts >>
        row.full_sim_seconds >> row.tbp_seconds)) {
    return Status(StatusCode::kCorrupt,
                  "cache-row: unreadable fields in " + context);
  }
  std::string extra;
  if (in >> extra) {
    return Status(StatusCode::kCorrupt,
                  "cache-row: trailing garbage in " + context);
  }
  row.irregular = irregular != 0;
  // Anything read from disk carries timings measured by the original
  // run; timing-consuming callers check this marker.
  row.from_cache = true;
  return row;
}

/// Per-directory store registry.  One ContentStore per cache directory per
/// process: the store's own mutex serializes row I/O, and opening (index
/// load) happens once.
using StoreRegistry =
    std::map<std::string, std::unique_ptr<store::ContentStore>>;

[[nodiscard]] par::Synchronized<StoreRegistry>& registry() {
  static par::Synchronized<StoreRegistry> instance;
  return instance;
}

[[nodiscard]] std::string normalize_dir(const std::string& cache_dir) {
  std::error_code ec;
  std::filesystem::path abs = std::filesystem::absolute(cache_dir, ec);
  if (ec) abs = cache_dir;
  return abs.lexically_normal().string();
}

/// The opened store for `cache_dir`, creating the directory only when
/// `create` is set.  Returns kNotFound for a missing directory on the
/// read-only path so lookups never materialize empty cache trees.
[[nodiscard]] Result<store::ContentStore*> store_for(
    const std::string& cache_dir, bool create) {
  auto stores = registry().lock();
  const std::string dir_key = normalize_dir(cache_dir);
  if (const auto it = stores->find(dir_key); it != stores->end()) {
    return it->second.get();
  }
  store::StoreOptions options;
  options.create = create;
  auto candidate = std::make_unique<store::ContentStore>(
      std::filesystem::path(cache_dir), options);
  Status opened = candidate->open();
  if (!opened.ok()) return opened;  // not cached: a later create may succeed
  const auto [it, inserted] = stores->emplace(dir_key, std::move(candidate));
  return it->second.get();
}

}  // namespace

std::string experiment_key(const std::string& workload_name,
                           const workloads::WorkloadScale& scale,
                           const sim::GpuConfig& config,
                           const ComparisonOptions& options) {
  std::ostringstream dump;
  dump.precision(17);  // a double that differs in any digit is another key
  const auto put = [&dump](const auto&... fields) {
    ((dump << fields << ' '), ...);
  };
  // Every GpuConfig field except fixed_unit_insts, which run_comparison
  // sets itself from the row's unit size.
  const sim::GpuConfig& c = config;
  put(static_cast<int>(c.scheduler), c.n_sms, c.sm_resources.max_threads,
      c.sm_resources.max_blocks, c.sm_resources.registers,
      c.sm_resources.shared_mem_bytes);
  put(c.lat.int_alu, c.lat.float_alu, c.lat.sfu, c.lat.shared_mem,
      c.lat.store_issue, c.lat.l1_hit, c.lat.l2_hit, c.lat.interconnect);
  put(c.l1.bytes, c.l1.line_bytes, c.l1.associativity, c.l1_mshrs, c.l2.bytes,
      c.l2.line_bytes, c.l2.associativity, c.l2_mshrs, c.l2_ports);
  put(c.n_channels, c.banks_per_channel, c.dram.row_hit_cycles,
      c.dram.row_miss_cycles, c.dram.burst_cycles, c.dram.scheduler_window,
      c.dram_page_bytes);
  const core::TBPointOptions& tbp = options.tbpoint;
  put(tbp.inter.distance_threshold, tbp.inter.include_bbv,
      tbp.sampler.entry_fraction, tbp.sampler.simulate_final_tail_blocks,
      tbp.sampler.min_warm_units, tbp.intra.distance_threshold,
      tbp.intra.variation_factor_threshold, tbp.intra.min_region_epochs,
      tbp.enable_inter, tbp.enable_intra);
  put(options.random.sample_fraction, options.random.seed,
      options.simpoint.max_k, options.simpoint.bic_fraction,
      options.simpoint.seed, options.simpoint.kmeans.max_iterations,
      options.simpoint.kmeans.restarts, options.systematic.period,
      options.systematic.seed, options.target_units, options.min_unit_insts,
      options.max_unit_insts);

  std::ostringstream key;
  key << workload_name << "_d" << scale.divisor << "_s" << std::hex << scale.seed
      << "_c" << fnv1a(dump.str());
  return key.str();
}

store::StoreKey experiment_store_key(const std::string& key) {
  return store::make_key("row", kRowFormat.magic,
                         key + " model " + std::to_string(kModelVersion), key);
}

std::filesystem::path cached_row_path(const std::string& cache_dir,
                                      const std::string& key) {
  const store::ContentStore probe(std::filesystem::path(cache_dir),
                                  store::StoreOptions{});
  return probe.entry_path(experiment_store_key(key));
}

Result<ExperimentRow> load_cached_row(const std::string& cache_dir,
                                      const std::string& key) {
  Result<store::ContentStore*> cache = store_for(cache_dir, /*create=*/false);
  if (!cache.has_value()) return cache.status();
  const store::StoreKey store_key = experiment_store_key(key);
  Result<std::string> payload = (*cache)->get(store_key);
  if (!payload.has_value()) return payload.status();
  Result<ExperimentRow> row = parse_row_text(*payload, key);
  if (!row.has_value()) {
    // The entry passed the store's checksum but not the row codec (e.g. a
    // payload written under a buggy serializer).  Quarantine it here too.
    (void)(*cache)->remove(store_key);
  }
  return row;
}

Status save_cached_row(const std::string& cache_dir, const std::string& key,
                       const ExperimentRow& row) {
  Result<store::ContentStore*> cache = store_for(cache_dir, /*create=*/true);
  if (!cache.has_value()) return cache.status();
  return (*cache)->put(experiment_store_key(key), serialize_row(row));
}

void flush_cache_metrics(obs::MetricsShard* shard) {
  if (shard == nullptr) return;
  const auto stores = registry().lock();
  for (const auto& [dir, cache] : *stores) cache->flush_metrics(shard);
}

ExperimentRow cached_comparison(const std::string& workload_name,
                                const workloads::WorkloadScale& scale,
                                const sim::GpuConfig& config,
                                const ComparisonOptions& options,
                                const std::string& cache_dir) {
  const std::string key = experiment_key(workload_name, scale, config, options);
  if (!cache_dir.empty()) {
    Result<ExperimentRow> row = load_cached_row(cache_dir, key);
    if (row.has_value()) return *std::move(row);
    // kNotFound is the ordinary miss; anything else means the entry was
    // quarantined by load_cached_row and we recompute (graceful
    // degradation).
  }
  const workloads::Workload workload =
      workloads::make_workload(workload_name, scale);
  ExperimentRow row = run_comparison(workload, config, options);
  if (!cache_dir.empty()) {
    (void)save_cached_row(cache_dir, key, row);  // caching is best-effort
  }
  return row;
}

}  // namespace tbp::harness
