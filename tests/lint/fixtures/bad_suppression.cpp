// Lint fixture: a suppression without a justification is itself a finding
// (lint-suppression), even though the allow is still honored so the
// underlying violation is reported exactly once.
#include <cstdlib>

int unjustified() {
  return std::rand();  // tbp-lint: allow(determinism-rand)
}

int stray_marker();  // tbp-lint: shard(worker)
