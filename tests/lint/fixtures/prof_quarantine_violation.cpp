// Deliberately broken: a prof include outside the allowlist, and wall-clock
// getters flowing into result fields the manifests promise byte-identity
// for.  Exercised by tests/lint/lint_test.cpp; excluded from tree scans.
#include "prof/prof.hpp"

struct Timer {
  double seconds() const { return 0.0; }
  double busy_seconds() const { return 0.0; }
};
struct Value {
  void set(const char* key, double v);
};
// A _ratio key is not a wall-clock sink: only _seconds fields are.

void emit_manifest(Value& doc, const Timer& timer) {
  doc.set("predicted_ipc", timer.seconds());
  doc.set("cycles", timer.busy_seconds());
  doc.set("imbalance_ratio", timer.seconds());
}
