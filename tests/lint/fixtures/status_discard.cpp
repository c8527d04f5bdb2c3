// Compile fixture for the status_discard_rejected ctest: each DROP line
// throws away a Status or Result in one of five ways.  Compiled as is, every
// DROP line must fail with a nodiscard diagnostic; compiled with
// -DEXPLICIT_DISCARD, the same calls cast to void must compile cleanly.
// Nothing here carries its own [[nodiscard]]: the class attribute on
// tbp::Status and tbp::Result is what the test holds the compiler to.
#include <functional>

#include "support/status.hpp"

#ifdef EXPLICIT_DISCARD
#define DROP (void)
#else
#define DROP
#endif

namespace {

tbp::Status flush_rows() { return tbp::Status(); }

tbp::Result<int> row_count() { return 3; }

struct Table {
  tbp::Status close() { return tbp::Status(); }
};

}  // namespace

void drop_every_kind() {
  Table table;
  const std::function<tbp::Status()> callback = flush_rows;
  DROP flush_rows();
  DROP table.close();
  DROP row_count();
  DROP callback();
  DROP []() { return tbp::Status(); }();
}
