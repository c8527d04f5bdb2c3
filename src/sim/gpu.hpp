// Top-level GPU simulator: greedy global thread-block dispatcher, the SM
// array, the memory hierarchy, and sampling-unit metering.  One call to
// run_launch simulates one kernel launch (the unit at which all of the
// paper's sampling operates) on a machine built for that call alone: cold
// caches, empty MSHRs and queues, zeroed counters.  Nothing carries over
// from one launch to the next, so launch simulations compose independently.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"
#include "sim/config.hpp"
#include "sim/controller.hpp"
#include "sim/memory_system.hpp"
#include "sim/sm.hpp"
#include "support/status.hpp"
#include "trace/kernel.hpp"

namespace tbp::sim {

/// A fixed-size sampling unit (the Random / Ideal-SimPoint granularity):
/// closed every `GpuConfig::fixed_unit_insts` issued warp instructions.
struct FixedUnit {
  std::uint64_t start_cycle = 0;
  std::uint64_t end_cycle = 0;
  std::uint64_t warp_insts = 0;
  std::uint64_t thread_insts = 0;
  std::vector<std::uint32_t> bbv;  ///< warp insts per static basic block

  [[nodiscard]] double ipc() const noexcept {
    // end <= start covers both the degenerate zero-span unit and a
    // malformed (e.g. default-initialised) unit whose end precedes its
    // start; the unguarded subtraction would wrap to ~2^64 there.
    if (end_cycle <= start_cycle) return 0.0;
    const std::uint64_t span = end_cycle - start_cycle;
    return static_cast<double>(warp_insts) / static_cast<double>(span);
  }
};

struct LaunchResult {
  std::uint64_t cycles = 0;
  std::uint64_t sim_warp_insts = 0;    ///< issued (not fast-forwarded)
  std::uint64_t sim_thread_insts = 0;
  std::vector<std::uint32_t> skipped_blocks;  ///< fast-forwarded block ids
  std::vector<SamplingUnit> tb_units;         ///< block-delimited units
  std::vector<FixedUnit> fixed_units;         ///< when fixed_unit_insts > 0
  MemoryStats mem;
  std::uint32_t sm_occupancy = 0;
  std::uint32_t system_occupancy = 0;

  /// Machine IPC over the launch.  With every SM charged the full launch
  /// duration, the paper's Fig. 9 metric sum_k insts_k / cycles_k reduces to
  /// this value.
  [[nodiscard]] double machine_ipc() const noexcept {
    return cycles == 0 ? 0.0
                       : static_cast<double>(sim_warp_insts) /
                             static_cast<double>(cycles);
  }
};

/// Structured forward-progress diagnostic filled in when a launch
/// deadlocks, livelocks, or exceeds its cycle budget: which cycle, how far
/// dispatch got, and every SM's resident blocks and warp scheduling states.
struct WatchdogDiagnostic {
  bool triggered = false;
  std::uint64_t cycle = 0;
  std::uint64_t stalled_cycles = 0;  ///< cycles since the last forward progress
  std::uint32_t dispatched_blocks = 0;
  std::uint32_t n_blocks = 0;
  std::uint64_t warp_insts = 0;  ///< issued machine-wide before the stall
  std::vector<SmDebugState> sms;

  /// Multi-line human-readable rendering (also used as the Status message).
  [[nodiscard]] std::string to_string() const;
};

/// Observability hooks for one launch simulation.  Both sides are optional
/// and pure observers: attaching them never changes a single simulated
/// cycle, which is what keeps metrics-on and metrics-off runs bit-identical
/// (tests/obs/observation_test.cpp holds the simulator to that).
///
/// The shard/buffer are single-threaded: parallel launch simulations each
/// get their own (keyed by launch index through obs::Observation) and the
/// merge afterwards is deterministic.
struct LaunchObservation {
  obs::MetricsShard* metrics = nullptr;  ///< null = counters off
  obs::TraceBuffer* trace = nullptr;     ///< null = timeline capture off
};

/// The shard and buffer `session` hands out under `key` (a launch's
/// observation key, e.g. "bfs/full/000003"), or nulls when `session` is
/// null.
[[nodiscard]] LaunchObservation observe_launch(obs::Observation* session,
                                               const std::string& key);

struct RunOptions {
  SimController* controller = nullptr;  ///< null = full simulation
  std::uint64_t max_cycles = 1ull << 40;  ///< hard cycle budget
  /// Watchdog: a launch that goes this many cycles without issuing an
  /// instruction, dispatching a block or retiring a block is declared
  /// deadlocked.  Real memory-bound stalls are thousands of cycles at worst,
  /// so the default leaves three orders of magnitude of headroom.
  std::uint64_t stall_cycle_limit = 1ull << 22;
  std::uint32_t sim_jobs = 1;  ///< unused: the simulator never reads it
  /// Metrics/timeline capture; null pointers switch it off.
  LaunchObservation observe;
};

class GpuSimulator {
 public:
  explicit GpuSimulator(const GpuConfig& config);

  /// Simulates one launch to completion.  Aborts (with the diagnostic on
  /// stderr) if the kernel's per-block resources exceed one SM, the
  /// watchdog detects a deadlock, or max_cycles is reached — use
  /// run_launch_checked to get the failure as a value instead.
  [[nodiscard]] LaunchResult run_launch(const trace::LaunchTraceSource& launch,
                                        const RunOptions& options = {});

  /// Like run_launch, but failures come back as a Status instead of
  /// aborting: kInvalidArgument (kernel exceeds per-SM resources),
  /// kDeadlock (watchdog: no forward progress for stall_cycle_limit
  /// cycles), kTimeout (max_cycles exhausted).  When `diagnostic` is
  /// non-null it is filled on watchdog/timeout failures.
  [[nodiscard]] Result<LaunchResult> run_launch_checked(
      const trace::LaunchTraceSource& launch, const RunOptions& options = {},
      WatchdogDiagnostic* diagnostic = nullptr);

  [[nodiscard]] const GpuConfig& config() const noexcept { return config_; }

 private:
  GpuConfig config_;
};

/// The full simulation of an application's launches: each launch runs on
/// its own freshly built machine, up to `jobs` at a time, and element i of
/// the result is launch i's, for every jobs value.  With `observe` set,
/// launch i records under `key_prefix + obs::key_index(i)`.  A failed
/// launch aborts, as run_launch does.
[[nodiscard]] std::vector<LaunchResult> simulate_launches(
    std::span<const trace::LaunchTraceSource* const> launches,
    const GpuConfig& config, std::size_t jobs,
    obs::Observation* observe = nullptr, std::string_view key_prefix = {});

}  // namespace tbp::sim
