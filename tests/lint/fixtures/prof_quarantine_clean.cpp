// Clean under the prof rules: this file is on the fixture include
// allowlist, and every wall-clock getter lands in a field whose key ends
// in _seconds — the suffix that marks a wall-clock reporting field, which
// no manifest carries.
#include "prof/prof.hpp"

struct Timer {
  double seconds() const { return 0.0; }
  double busy_seconds() const { return 0.0; }
};
struct Value {
  void set(const char* key, double v);
};

void emit_report(Value& doc, const Timer& timer) {
  doc.set("wall_seconds", timer.seconds());
  doc.set("busy_seconds", timer.busy_seconds());
  doc.set("cycles", 41.0);  // pure result field: no clock value in sight
}
