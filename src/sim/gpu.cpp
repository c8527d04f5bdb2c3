#include "sim/gpu.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "support/parallel.hpp"
#include "trace/occupancy.hpp"

namespace tbp::sim {
namespace {

/// FR-FCFS queue-depth histogram bucket edges (requests at each scheduling
/// decision; power-of-two spacing covers idle through saturated channels).
constexpr std::uint64_t kQueueDepthBounds[] = {1, 2, 4, 8, 16, 32, 64, 128, 256};

/// "sim.sm.NN." counter-name prefix, zero-padded so names sort by SM id.
std::string sm_prefix(std::uint32_t sm_id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "sim.sm.%02u.", sm_id);
  return buf;
}

void flush_stall_stats(obs::MetricsShard& shard, const std::string& prefix,
                       const SmStallStats& stats) {
  shard.add(prefix + "issued_cycles", stats.issued_cycles);
  shard.add(prefix + "stall.memory", stats.stall_memory);
  shard.add(prefix + "stall.scoreboard", stats.stall_scoreboard);
  shard.add(prefix + "stall.barrier", stats.stall_barrier);
  shard.add(prefix + "stall.idle", stats.stall_idle);
  shard.add(prefix + "stall.wedged", stats.stall_wedged);
  shard.add(prefix + "stall.other", stats.stall_other);
}

}  // namespace

std::string WatchdogDiagnostic::to_string() const {
  std::ostringstream out;
  out << "launch made no forward progress for " << stalled_cycles
      << " cycles at cycle " << cycle << " (dispatched " << dispatched_blocks
      << "/" << n_blocks << " blocks, " << warp_insts << " warp insts issued)";
  for (const SmDebugState& sm : sms) {
    out << "\n  SM " << sm.sm_id << ": blocks [";
    for (std::size_t i = 0; i < sm.active_blocks.size(); ++i) {
      if (i > 0) out << ' ';
      out << sm.active_blocks[i];
    }
    out << "], warps: " << sm.warps_ready << " ready, "
        << sm.warps_wait_latency << " wait-latency, " << sm.warps_wait_mem
        << " wait-mem, " << sm.warps_wait_barrier << " wait-barrier, "
        << sm.warps_wedged << " wedged, " << sm.warps_done << " done";
  }
  return out.str();
}

namespace {

/// Tracks the designated block for thread-block-delimited sampling units
/// (paper Section IV-B2): the unit is the interval between the start and
/// the end of a *specified* thread block.  The first specified block is the
/// very first dispatched block; when the specified block retires, the unit
/// closes and the next dispatched block becomes the new specified block.
/// Because the specified block executes the whole kernel code, each unit
/// spans a full block lifetime — long enough for its machine-wide IPC to be
/// a stable sample (tens of concurrent blocks' throughput averaged over
/// thousands of cycles), which is what the warming comparison relies on.
class UnitTracker {
 public:
  void on_dispatch(std::uint32_t block_id, std::uint64_t cycle,
                   const GlobalMeter& meter) {
    if (unit_open_) return;
    unit_open_ = true;
    designated_ = block_id;
    start_cycle_ = cycle;
    start_insts_ = meter.warp_insts;
  }

  /// Returns true (and fills `unit`) when this retirement closes a unit.
  bool on_retire(std::uint32_t block_id, std::uint64_t cycle,
                 const GlobalMeter& meter, SamplingUnit& unit) {
    if (!unit_open_ || block_id != designated_) return false;
    unit = SamplingUnit{
        .start_cycle = start_cycle_,
        .end_cycle = cycle,
        .warp_insts = meter.warp_insts - start_insts_,
        .end_block_id = block_id,
    };
    unit_open_ = false;  // the next dispatch re-opens
    return true;
  }

  /// Closes the trailing partial unit (the drain after the last designated
  /// block, or a launch whose designated block never retired) so units tile
  /// the whole simulation.  Returns false if nothing is open or the tail is
  /// empty.
  bool close_tail(std::uint64_t cycle, const GlobalMeter& meter,
                  SamplingUnit& unit) {
    if (!unit_open_ && meter.warp_insts == last_tail_insts_) return false;
    const std::uint64_t start =
        unit_open_ ? start_cycle_ : last_tail_cycle_;
    const std::uint64_t start_insts =
        unit_open_ ? start_insts_ : last_tail_insts_;
    if (meter.warp_insts == start_insts) return false;
    unit = SamplingUnit{
        .start_cycle = start,
        .end_cycle = cycle,
        .warp_insts = meter.warp_insts - start_insts,
        .end_block_id = kTailUnit,
    };
    unit_open_ = false;
    return true;
  }

  /// Records where the last closed unit ended so close_tail can account for
  /// drain instructions issued after it.
  void note_close(std::uint64_t cycle, const GlobalMeter& meter) {
    last_tail_cycle_ = cycle;
    last_tail_insts_ = meter.warp_insts;
  }

  static constexpr std::uint32_t kTailUnit = 0xffffffffu;

 private:
  bool unit_open_ = false;
  std::uint32_t designated_ = 0;
  std::uint64_t start_cycle_ = 0;
  std::uint64_t start_insts_ = 0;
  std::uint64_t last_tail_cycle_ = 0;
  std::uint64_t last_tail_insts_ = 0;
};

/// One kernel launch mid-simulation: the machine, the dispatcher, the
/// metering, and the watchdog.
struct LaunchEngine {
  LaunchEngine(const GpuConfig& cfg, const trace::LaunchTraceSource& src,
               const RunOptions& opts, WatchdogDiagnostic* diag)
      : config(cfg),
        launch(src),
        options(opts),
        diagnostic(diag),
        memory(cfg) {}

  const GpuConfig& config;
  const trace::LaunchTraceSource& launch;
  const RunOptions& options;
  WatchdogDiagnostic* diagnostic = nullptr;

  MemorySystem memory;
  GlobalMeter meter;
  std::vector<SmCore> sms;
  UnitTracker units;
  SimController default_controller;
  SimController* controller = nullptr;
  std::uint32_t occupancy = 0;

  std::uint32_t n_blocks = 0;
  std::uint32_t next_block = 0;
  std::uint64_t cycle = 0;
  std::uint64_t retired_blocks = 0;
  std::optional<BlockAction> pending_action;

  std::uint64_t fixed_unit_start_cycle = 0;
  std::uint64_t fixed_unit_start_insts = 0;
  std::uint64_t fixed_unit_start_threads = 0;

  // Forward-progress watchdog: progress is an issued instruction, a
  // dispatched block, or a retired block.
  std::uint64_t last_progress_cycle = 0;
  std::uint64_t seen_warp_insts = 0;
  std::uint32_t seen_next_block = 0;
  std::uint64_t seen_retired_blocks = 0;

  // Observability (pure observers: nothing here feeds back into a timing
  // decision, so attaching it never changes the simulation).
  obs::MetricsShard* shard = nullptr;
  obs::TraceBuffer* timeline = nullptr;
  std::vector<SmStallStats> stall_stats;
  struct TbDispatch {
    std::uint64_t cycle = 0;
    std::uint32_t sm = 0;
  };
  std::vector<TbDispatch> tb_dispatch;  ///< by block id, trace capture only

  LaunchResult result;

  /// Occupancy check plus machine/observability setup.  Must be called
  /// (and succeed) before run().
  [[nodiscard]] Status init();

  /// Greedy dispatch: fills every free slot in SM-id order while simulated
  /// blocks remain.  The controller is consulted exactly once per block and
  /// its decision is cached across cycles while all slots are busy; kSkip
  /// blocks are consumed instantly (a whole fast-forwarded region costs
  /// zero cycles).
  void dispatch();

  /// One block retirement at cycle `now`: controller callback, timeline
  /// span, sampling-unit close.
  void process_retirement(std::uint32_t block_id, std::uint64_t now);

  /// Closes the current fixed-size unit at `now` if the instruction budget
  /// was reached (no-op when fixed units are disabled).
  void check_fixed_unit(std::uint64_t now);
  void close_fixed_unit(std::uint64_t now);

  /// Watchdog bookkeeping after all of cycle `now`'s events committed.
  /// Returns a kDeadlock Status when the stall limit is hit.
  [[nodiscard]] Status watchdog_after_cycle(std::uint64_t now);

  /// The kTimeout failure, with diagnostics, for a launch that reached
  /// options.max_cycles (call with cycle already advanced past the last
  /// executed cycle).
  [[nodiscard]] Status timeout_status();

  [[nodiscard]] bool all_sms_idle() const;

  WatchdogDiagnostic fill_diagnostic(std::uint64_t at, std::uint64_t stalled);

  /// The cycle loop.
  [[nodiscard]] Status run();

  /// Tail units, result fields, and the metrics flush.  Call after a
  /// successful run().
  [[nodiscard]] Result<LaunchResult> collect_result();
};


Status LaunchEngine::init() {
  const trace::KernelInfo& kernel = launch.kernel();
  occupancy = trace::sm_occupancy(kernel, config.sm_resources);
  if (occupancy == 0) {
    return Status(StatusCode::kInvalidArgument,
                  "kernel " + kernel.name + " exceeds per-SM resources");
  }

  if (config.fixed_unit_insts > 0) {
    meter.fixed_unit_bbv.assign(kernel.n_basic_blocks, 0);
  }

  sms.reserve(config.n_sms);
  for (std::uint32_t s = 0; s < config.n_sms; ++s) {
    sms.emplace_back(s, config, memory, meter);
    sms.back().configure_launch(occupancy, kernel.warps_per_block());
  }

  result.sm_occupancy = occupancy;
  result.system_occupancy = occupancy * config.n_sms;

  controller = options.controller != nullptr ? options.controller
                                             : &default_controller;
  n_blocks = launch.n_blocks();

  shard = options.observe.metrics;
  timeline = options.observe.trace;
  if (shard != nullptr) {
    stall_stats.resize(sms.size());
    for (std::size_t s = 0; s < sms.size(); ++s) {
      sms[s].enable_stall_accounting(&stall_stats[s]);
    }
    memory.set_queue_depth_histogram(
        shard->histogram("sim.dram.queue_depth", kQueueDepthBounds));
  }
  if (timeline != nullptr) {
    tb_dispatch.resize(n_blocks);
    for (std::uint32_t s = 0; s < config.n_sms; ++s) {
      timeline->thread_name(s, "SM " + std::to_string(s));
    }
    // One synthetic row past the SMs for machine-wide unit boundaries.
    timeline->thread_name(config.n_sms, "sampling-units");
  }
  return Status();
}

void LaunchEngine::dispatch() {
  const std::uint32_t n_sms = static_cast<std::uint32_t>(sms.size());
  while (next_block < n_blocks) {
    if (!pending_action.has_value()) {
      pending_action = controller->on_block_dispatch(next_block, cycle);
    }
    if (*pending_action == BlockAction::kSkip) {
      pending_action.reset();
      result.skipped_blocks.push_back(next_block);
      controller->on_block_retire(next_block, cycle, /*was_skipped=*/true);
      ++next_block;
      continue;
    }
    std::uint32_t target = n_sms;
    for (std::uint32_t s = 0; s < n_sms; ++s) {
      if (sms[s].has_free_slot()) {
        target = s;
        break;
      }
    }
    if (target == n_sms) return;  // all slots busy; the cached action waits
    pending_action.reset();
    sms[target].dispatch_block(next_block, launch.block_trace(next_block));
    units.on_dispatch(next_block, cycle, meter);
    if (timeline != nullptr) {
      tb_dispatch[next_block] = TbDispatch{.cycle = cycle, .sm = target};
    }
    ++next_block;
  }
}

void LaunchEngine::process_retirement(std::uint32_t block_id, std::uint64_t now) {
  ++retired_blocks;
  controller->on_block_retire(block_id, now, /*was_skipped=*/false);
  if (timeline != nullptr) {
    const TbDispatch& start = tb_dispatch[block_id];
    timeline->complete(
        "TB " + std::to_string(block_id), "tb", start.sm, start.cycle,
        now - start.cycle,
        {{"block", obs::json_number(std::uint64_t{block_id})}});
  }
  SamplingUnit unit;
  if (units.on_retire(block_id, now, meter, unit)) {
    units.note_close(now, meter);
    result.tb_units.push_back(unit);
    controller->on_sampling_unit(unit);
  }
}

void LaunchEngine::check_fixed_unit(std::uint64_t now) {
  if (config.fixed_unit_insts > 0 &&
      meter.warp_insts - fixed_unit_start_insts >= config.fixed_unit_insts) {
    close_fixed_unit(now);
  }
}

void LaunchEngine::close_fixed_unit(std::uint64_t now) {
  FixedUnit unit;
  unit.start_cycle = fixed_unit_start_cycle;
  unit.end_cycle = now;
  unit.warp_insts = meter.warp_insts - fixed_unit_start_insts;
  unit.thread_insts = meter.thread_insts - fixed_unit_start_threads;
  unit.bbv = meter.fixed_unit_bbv;
  if (timeline != nullptr) {
    timeline->instant(
        "fixed-unit " + std::to_string(result.fixed_units.size()), "unit",
        config.n_sms, now,
        {{"warp_insts", obs::json_number(unit.warp_insts)}});
  }
  result.fixed_units.push_back(std::move(unit));
  std::fill(meter.fixed_unit_bbv.begin(), meter.fixed_unit_bbv.end(), 0u);
  fixed_unit_start_cycle = now;
  fixed_unit_start_insts = meter.warp_insts;
  fixed_unit_start_threads = meter.thread_insts;
}

Status LaunchEngine::watchdog_after_cycle(std::uint64_t now) {
  if (meter.warp_insts != seen_warp_insts || next_block != seen_next_block ||
      retired_blocks != seen_retired_blocks) {
    seen_warp_insts = meter.warp_insts;
    seen_next_block = next_block;
    seen_retired_blocks = retired_blocks;
    last_progress_cycle = now;
    return Status();
  }
  if (now - last_progress_cycle >= options.stall_cycle_limit) {
    // Deadlock/livelock: every warp is parked (barrier mismatch, wedged
    // stream, controller bug) and nothing can ever move again.
    const WatchdogDiagnostic diag =
        fill_diagnostic(now, now - last_progress_cycle);
    return Status(StatusCode::kDeadlock, diag.to_string());
  }
  return Status();
}

Status LaunchEngine::timeout_status() {
  const WatchdogDiagnostic diag =
      fill_diagnostic(cycle, cycle - last_progress_cycle);
  return Status(StatusCode::kTimeout,
                "simulation exceeded max_cycles (" +
                    std::to_string(options.max_cycles) + "); " +
                    diag.to_string());
}

bool LaunchEngine::all_sms_idle() const {
  for (const SmCore& sm : sms) {
    if (!sm.idle()) return false;
  }
  return true;
}

WatchdogDiagnostic LaunchEngine::fill_diagnostic(std::uint64_t at,
                                                 std::uint64_t stalled) {
  WatchdogDiagnostic diag;
  diag.triggered = true;
  diag.cycle = at;
  diag.stalled_cycles = stalled;
  diag.dispatched_blocks = next_block;
  diag.n_blocks = n_blocks;
  diag.warp_insts = meter.warp_insts;
  diag.sms.reserve(sms.size());
  for (const SmCore& sm : sms) diag.sms.push_back(sm.debug_state());
  if (diagnostic != nullptr) *diagnostic = diag;
  return diag;
}

Status LaunchEngine::run() {
  std::vector<MemCompletion> completions;
  while (next_block < n_blocks || !all_sms_idle()) {
    dispatch();

    for (SmCore& sm : sms) sm.issue(cycle);

    completions.clear();
    memory.tick(cycle, completions);
    for (const MemCompletion& c : completions) {
      sms[c.sm_id].on_mem_complete(c.token);
    }

    for (SmCore& sm : sms) {
      for (std::uint32_t block_id : sm.retired()) {
        process_retirement(block_id, cycle);
      }
      sm.retired().clear();
    }

    check_fixed_unit(cycle);

    Status watchdog = watchdog_after_cycle(cycle);
    if (!watchdog.ok()) return watchdog;

    ++cycle;
    if (cycle >= options.max_cycles) return timeout_status();
  }
  return Status();
}

Result<LaunchResult> LaunchEngine::collect_result() {
  // Close the trailing partial fixed unit so every instruction is in a unit.
  if (config.fixed_unit_insts > 0 && meter.warp_insts > fixed_unit_start_insts) {
    close_fixed_unit(cycle);
  }
  // Same for the block-delimited units: account for the drain tail.
  {
    SamplingUnit tail;
    if (units.close_tail(cycle, meter, tail)) result.tb_units.push_back(tail);
  }

  result.cycles = cycle;
  result.sim_warp_insts = meter.warp_insts;
  result.sim_thread_insts = meter.thread_insts;
  result.mem = memory.stats();

  // Flush the accumulated struct counters into named metrics — once per
  // launch, so the hot loops above never touched a string.
  if (shard != nullptr) {
    SmStallStats machine;
    for (std::uint32_t s = 0; s < static_cast<std::uint32_t>(sms.size()); ++s) {
      const SmStallStats& st = stall_stats[s];
      flush_stall_stats(*shard, sm_prefix(s), st);
      machine.issued_cycles += st.issued_cycles;
      machine.stall_memory += st.stall_memory;
      machine.stall_scoreboard += st.stall_scoreboard;
      machine.stall_barrier += st.stall_barrier;
      machine.stall_idle += st.stall_idle;
      machine.stall_wedged += st.stall_wedged;
      machine.stall_other += st.stall_other;
    }
    flush_stall_stats(*shard, "sim.", machine);

    const MemoryStats& mem = result.mem;
    shard->add("sim.l1.hits", mem.l1.hits);
    shard->add("sim.l1.misses", mem.l1.misses);
    shard->add("sim.l1.evictions", mem.l1.evictions);
    shard->add("sim.l1.mshr_merges", mem.l1_mshr_merges);
    shard->add("sim.l1.mshr_stalls", mem.l1_mshr_stalls);
    shard->add("sim.l2.hits", mem.l2.hits);
    shard->add("sim.l2.misses", mem.l2.misses);
    shard->add("sim.l2.evictions", mem.l2.evictions);
    shard->add("sim.l2.mshr_merges", mem.l2_mshr_merges);
    shard->add("sim.l2.mshr_stalls", mem.l2_mshr_overflows);
    shard->add("sim.dram.row_hits", mem.dram.row_hits);
    shard->add("sim.dram.row_misses", mem.dram.row_misses);
    shard->add("sim.dram.loads", mem.dram.loads);
    shard->add("sim.dram.stores", mem.dram.stores);
    shard->add("sim.dram.scheduling_decisions", mem.dram.scheduling_decisions);

    shard->add("sim.launch.count", 1);
    shard->add("sim.launch.cycles", result.cycles);
    shard->add("sim.launch.warp_insts", result.sim_warp_insts);
    shard->add("sim.launch.thread_insts", result.sim_thread_insts);
    shard->add("sim.launch.blocks", n_blocks);
    shard->add("sim.launch.skipped_blocks", result.skipped_blocks.size());
  }
  return std::move(result);
}

}  // namespace

GpuSimulator::GpuSimulator(const GpuConfig& config) : config_(config) {}

LaunchResult GpuSimulator::run_launch(const trace::LaunchTraceSource& launch,
                                      const RunOptions& options) {
  Result<LaunchResult> result = run_launch_checked(launch, options);
  if (!result.has_value()) {
    std::fprintf(stderr, "%s\n", result.status().to_string().c_str());
    std::abort();
  }
  return *std::move(result);
}

Result<LaunchResult> GpuSimulator::run_launch_checked(
    const trace::LaunchTraceSource& launch, const RunOptions& options,
    WatchdogDiagnostic* diagnostic) {
  LaunchEngine engine(config_, launch, options, diagnostic);
  Status setup = engine.init();
  if (!setup.ok()) return setup;
  Status run = engine.run();
  if (!run.ok()) return run;
  return engine.collect_result();
}

LaunchObservation observe_launch(obs::Observation* session,
                                 const std::string& key) {
  if (session == nullptr) return {};
  return LaunchObservation{.metrics = session->metrics_shard(key),
                           .trace = session->trace_buffer(key)};
}

std::vector<LaunchResult> simulate_launches(
    std::span<const trace::LaunchTraceSource* const> launches,
    const GpuConfig& config, std::size_t jobs, obs::Observation* observe,
    std::string_view key_prefix) {
  std::vector<LaunchResult> results(launches.size());
  par::parallel_for(launches.size(), jobs, [&](std::size_t i) {
    RunOptions options;
    if (observe != nullptr) {
      options.observe = observe_launch(
          observe, std::string(key_prefix) + obs::key_index(i));
    }
    results[i] = GpuSimulator(config).run_launch(*launches[i], options);
  });
  return results;
}

}  // namespace tbp::sim
