#include "trace/kernel.hpp"

namespace tbp::trace {

BlockStats count_block(const BlockTrace& block, std::span<std::uint64_t> bbv) {
  BlockStats stats;
  for (const auto& stream : block.warps) {
    for (const WarpInst& inst : stream) {
      stats.add(inst);
      if (!bbv.empty()) ++bbv[inst.bb_id];
    }
  }
  return stats;
}

}  // namespace tbp::trace
