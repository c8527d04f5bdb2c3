#include "sim/dram.hpp"

#include <algorithm>

namespace tbp::sim {

DramChannel::DramChannel(const GpuConfig& config)
    : timing_(config.dram),
      page_lines_(std::uint64_t{config.n_channels} * config.lines_per_dram_page()),
      row_lines_(page_lines_ * config.banks_per_channel),
      banks_(config.banks_per_channel) {}

void DramChannel::push(const DramRequest& request) {
  Bank& bank = banks_[bank_of(request.line)];
  bank.queue.push_back(request);
  ++queued_;
  if (bank.queue.size() == 1) {
    next_eligible_ = std::min(next_eligible_, eligible_at(bank));
  }
}

void DramChannel::tick(std::uint64_t cycle, std::vector<DramReply>& replies) {
  // Deliver completed loads.
  while (!pending_.empty() && pending_.front().ready <= cycle) {
    replies.push_back(pending_.front());
    pending_.pop_front();
  }
  if (cycle < next_eligible_) return;

  // FR-FCFS: among idle banks, the oldest row hit within each bank's scan
  // window wins; otherwise the oldest head-of-queue request.
  Bank* chosen_bank = nullptr;
  std::size_t chosen_pos = 0;
  bool chosen_is_hit = false;
  std::uint64_t chosen_arrival = ~std::uint64_t{0};
  std::uint64_t next = ~std::uint64_t{0};
  for (Bank& bank : banks_) {
    if (bank.queue.empty()) continue;
    const std::uint64_t at = eligible_at(bank);
    if (at > cycle) {
      next = std::min(next, at);
      continue;
    }
    // Of two eligible banks, one is left eligible for the next cycle.
    if (chosen_bank != nullptr) next = cycle + 1;

    // This bank's candidate: its oldest row hit within the scan window, or
    // its head-of-queue request if no hit is in sight.
    std::size_t cand_pos = 0;
    bool cand_hit = false;
    const std::size_t window = std::min<std::size_t>(
        bank.queue.size(), timing_.scheduler_window);
    for (std::size_t i = 0; i < window; ++i) {
      const DramRequest& req = bank.queue[i];
      if (req.arrival > cycle) break;
      if (bank.row_valid && bank.open_row == row_of(req.line)) {
        cand_pos = i;
        cand_hit = true;
        break;
      }
    }

    const std::uint64_t cand_arrival = bank.queue[cand_pos].arrival;
    const bool preferred =
        (cand_hit && !chosen_is_hit) ||
        (cand_hit == chosen_is_hit && cand_arrival < chosen_arrival);
    if (preferred) {
      chosen_bank = &bank;
      chosen_pos = cand_pos;
      chosen_is_hit = cand_hit;
      chosen_arrival = cand_arrival;
    }
  }
  next_eligible_ = next;
  if (chosen_bank == nullptr) return;

  const DramRequest req = chosen_bank->queue[chosen_pos];
  chosen_bank->queue.erase(chosen_bank->queue.begin() +
                           static_cast<std::ptrdiff_t>(chosen_pos));
  --queued_;

  const std::uint32_t service = chosen_is_hit ? timing_.row_hit_cycles
                                              : timing_.row_miss_cycles;
  // Data transfer serializes on the channel bus.
  const std::uint64_t data_start = std::max(cycle + service, bus_free_at_);
  const std::uint64_t done = data_start + timing_.burst_cycles;
  bus_free_at_ = done;
  chosen_bank->busy_until = done;
  chosen_bank->open_row = row_of(req.line);
  chosen_bank->row_valid = true;
  if (!chosen_bank->queue.empty()) {
    next_eligible_ = std::min(next, eligible_at(*chosen_bank));
  }

  ++stats_.scheduling_decisions;
  if (queue_depth_hist_ != nullptr) queue_depth_hist_->record(queued_ + 1);
  if (chosen_is_hit) {
    ++stats_.row_hits;
  } else {
    ++stats_.row_misses;
  }
  if (req.is_store) {
    ++stats_.stores;
  } else {
    ++stats_.loads;
    pending_.push_back(DramReply{.line = req.line, .ready = done});
  }
}

DramSystem::DramSystem(const GpuConfig& config) : n_channels_(config.n_channels) {
  channels_.reserve(n_channels_);
  for (std::uint32_t c = 0; c < n_channels_; ++c) channels_.emplace_back(config);
}

void DramSystem::push(std::uint64_t line, bool is_store, std::uint64_t cycle) {
  channels_[line % n_channels_].push(
      DramRequest{.line = line, .is_store = is_store, .arrival = cycle});
}

void DramSystem::tick(std::uint64_t cycle, std::vector<DramReply>& replies) {
  for (DramChannel& channel : channels_) channel.tick(cycle, replies);
}

bool DramSystem::busy() const noexcept {
  return std::any_of(channels_.begin(), channels_.end(),
                     [](const DramChannel& c) { return c.busy(); });
}

DramStats DramSystem::aggregate_stats() const noexcept {
  DramStats total;
  for (const DramChannel& channel : channels_) {
    const DramStats& s = channel.stats();
    total.row_hits += s.row_hits;
    total.row_misses += s.row_misses;
    total.loads += s.loads;
    total.stores += s.stores;
    total.scheduling_decisions += s.scheduling_decisions;
  }
  return total;
}

void DramSystem::set_queue_depth_histogram(obs::Histogram* hist) noexcept {
  for (DramChannel& channel : channels_) channel.set_queue_depth_histogram(hist);
}

}  // namespace tbp::sim
