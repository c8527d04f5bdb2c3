#include "service/daemon.hpp"

#include <cassert>
#include <chrono>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "prof/prof.hpp"
#include "support/parallel.hpp"
#include "support/walltime.hpp"

namespace tbp::service {
namespace {

/// One admitted request, parsed and fingerprinted.
struct Admitted {
  std::string id;
  RequestSpec spec;
  std::string fingerprint;  ///< store key id = canonical-line hash
};

/// All admitted requests sharing one fingerprint.
struct Group {
  RequestSpec spec;
  store::StoreKey key;
  std::vector<std::string> ids;  ///< claim order (sorted)
};

}  // namespace

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {}

Status Daemon::open() {
  if (store_ != nullptr) return Status();
  Status spooled = init_spool(options_.spool_dir);
  if (!spooled.ok()) return spooled;
  const std::filesystem::path store_dir = options_.store_dir.empty()
                                              ? options_.spool_dir / "store"
                                              : options_.store_dir;
  store::StoreOptions store_options;
  store_options.max_bytes = options_.store_max_bytes;
  store_options.create = true;
  store_options.prof = options_.prof;
  auto candidate =
      std::make_unique<store::ContentStore>(store_dir, store_options);
  Status opened = candidate->open();
  if (!opened.ok()) return opened;
  store_ = std::move(candidate);
  return Status();
}

Result<std::size_t> Daemon::drain_once() {
  if (store_ == nullptr) {
    return Status(StatusCode::kInvalidArgument, "daemon not opened");
  }

  // 1.–2. Claim and admit.
  Result<std::vector<std::string>> pending =
      pending_requests(options_.spool_dir);
  if (!pending.has_value()) return pending.status();

  // Lifecycle spans: an empty poll records nothing (serve() accounts the
  // idle time as service.spool_wait), so the histograms hold only passes
  // that did work.
  prof::ProfSession* const prof_sink =
      pending->empty() ? nullptr : options_.prof;

  std::size_t written = 0;
  const auto respond = [&](const std::string& id,
                           std::string_view bytes) -> Status {
    prof::ScopedSpan span(prof_sink, "service.respond");
    Status wrote = write_response(options_.spool_dir, id, bytes);
    if (!wrote.ok()) return wrote;
    Status finished = finish_request(options_.spool_dir, id);
    if (!finished.ok()) return finished;
    stats_.responses += 1;
    written += 1;
    return Status();
  };

  prof::ScopedSpan claim_span(prof_sink, "service.claim");
  std::vector<Admitted> admitted;
  for (const std::string& id : *pending) {
    Result<std::string> line = claim_request(options_.spool_dir, id);
    if (!line.has_value()) {
      if (line.status().code() == StatusCode::kNotFound) continue;  // lost race
      return line.status();
    }
    stats_.claimed += 1;
    Result<RequestSpec> spec = parse_request(*line);
    if (!spec.has_value()) {
      stats_.malformed += 1;
      Status answered = respond(id, error_response(spec.status()));
      if (!answered.ok()) return answered;
      continue;
    }
    Admitted item;
    item.id = id;
    item.spec = *std::move(spec);
    item.fingerprint = spec_store_key(item.spec).id;
    admitted.push_back(std::move(item));
  }
  claim_span.finish();

  // 3. Batch: collapse identical fingerprints into one group.  std::map
  // keeps group processing order deterministic (sorted by fingerprint).
  prof::ScopedSpan dedup_span(prof_sink, "service.dedup");
  std::map<std::string, Group> groups;
  for (Admitted& item : admitted) {
    Group& group = groups[item.fingerprint];
    if (group.ids.empty()) {
      group.spec = item.spec;
      group.key = spec_store_key(item.spec);
    } else {
      stats_.deduped += 1;
    }
    group.ids.push_back(std::move(item.id));
  }
  dedup_span.finish();

  // 4. Probe the store; simulate only the missing groups.
  prof::ScopedSpan probe_span(prof_sink, "service.probe");
  std::vector<Group*> missing;
  std::map<std::string, std::string> ready;  ///< fingerprint -> bytes
  for (auto& [fingerprint, group] : groups) {
    Result<std::string> stored = store_->get(group.key);
    if (stored.has_value()) {
      ready.emplace(fingerprint, *std::move(stored));
    } else {
      // kNotFound is the plain cold case; kCorrupt means the store already
      // quarantined the entry — both recompute.
      missing.push_back(&group);
    }
  }
  probe_span.finish();

  if (!missing.empty()) {
    // A lone group gets the whole worker budget inside its comparison;
    // a batch spreads the budget across groups instead.  Either shape is
    // bit-identical to serial.  No store access inside the parallel
    // region: results land in slots, the puts below run serially.
    std::vector<std::string> computed(missing.size());
    const std::size_t jobs = options_.jobs == 0 ? 1 : options_.jobs;
    if (missing.size() == 1) {
      prof::ScopedSpan span(prof_sink, "service.simulate");
      const Group& group = *missing.front();
      computed[0] =
          spec_manifest_bytes(group.spec, run_spec(group.spec, jobs));
    } else {
      auto simulate_group = [&](std::size_t i) {
        // ProfSession is thread-safe and a cold path (one span per group).
        prof::ScopedSpan span(prof_sink, "service.simulate");
        const Group& group = *missing[i];
        computed[i] =
            spec_manifest_bytes(group.spec, run_spec(group.spec, /*jobs=*/1));
      };
      par::parallel_for(missing.size(), jobs, simulate_group);
    }
    stats_.simulations += missing.size();
    prof::ScopedSpan write_span(prof_sink, "service.store_write");
    for (std::size_t i = 0; i < missing.size(); ++i) {
      Status put = store_->put(missing[i]->key, computed[i]);
      if (!put.ok()) return put;
    }
    write_span.finish();

    // 5a. Computed groups: first id from the in-memory bytes, every
    // duplicate from the store — a cold N-duplicate batch therefore reads
    // back exactly N-1 hits, the dedup proof.
    for (std::size_t i = 0; i < missing.size(); ++i) {
      const Group& group = *missing[i];
      for (std::size_t r = 0; r < group.ids.size(); ++r) {
        std::string_view bytes = computed[i];
        std::string from_store;
        if (r > 0) {
          Result<std::string> stored = store_->get(group.key);
          if (stored.has_value()) {
            from_store = *std::move(stored);
            bytes = from_store;
          }
          // A quarantined-on-read entry falls back to the in-memory bytes:
          // the client still gets the correct response.
        }
        Status answered = respond(group.ids[r], bytes);
        if (!answered.ok()) return answered;
      }
    }
  }

  // 5b. Warm groups: everyone gets the stored bytes.
  for (const auto& [fingerprint, bytes] : ready) {
    for (const std::string& id : groups[fingerprint].ids) {
      Status answered = respond(id, bytes);
      if (!answered.ok()) return answered;
    }
  }

  Status flushed = store_->flush_index();
  if (!flushed.ok()) return flushed;
  return written;
}

Status Daemon::serve(const std::atomic<bool>& stop) {
  Status opened = open();
  if (!opened.ok()) return opened;
  // One service.spool_wait span covers a whole idle stretch — from the
  // first empty drain until the poll that finds work — not each poll tick.
  prof::ProfSession* const prof_sink = options_.prof;
  double idle_start = -1.0;
  while (!stop.load(std::memory_order_relaxed)) {
    Result<std::size_t> drained = drain_once();
    if (!drained.has_value()) return drained.status();
    if (prof_sink != nullptr && *drained > 0 && idle_start >= 0.0) {
      prof_sink->record_span("service.spool_wait",
                             timing::monotonic_seconds() - idle_start);
      idle_start = -1.0;
    }
    if (options_.max_requests != 0 &&
        stats_.responses >= options_.max_requests) {
      return Status();
    }
    if (*drained == 0) {
      if (prof_sink != nullptr && idle_start < 0.0) {
        idle_start = timing::monotonic_seconds();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options_.poll_ms));
    }
  }
  return Status();
}

ServiceStats Daemon::stats() const { return stats_; }

store::ContentStore& Daemon::response_store() {
  assert(store_ != nullptr && "open() the daemon first");
  return *store_;
}

void Daemon::flush_metrics(obs::MetricsShard* shard) const {
  if (shard == nullptr) return;
  shard->add("service.claimed", stats_.claimed);
  shard->add("service.malformed", stats_.malformed);
  shard->add("service.deduped", stats_.deduped);
  shard->add("service.simulations", stats_.simulations);
  shard->add("service.responses", stats_.responses);
  if (store_ != nullptr) store_->flush_metrics(shard);
}

}  // namespace tbp::service
