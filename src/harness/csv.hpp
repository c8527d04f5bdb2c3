// CSV export of experiment rows — plotting-friendly output so the figure
// benches' tables can be regenerated as actual figures (gnuplot, pandas)
// without scraping the ASCII tables.  fig9, fig10, fig11, related_analytical
// and related_systematic accept `--csv PATH`.
#pragma once

#include <iosfwd>
#include <span>
#include <string>

#include "harness/experiment.hpp"
#include "support/status.hpp"

namespace tbp::harness {

/// Writes a header plus one line per row with every ExperimentRow field.
void write_rows_csv(std::span<const ExperimentRow> rows, std::ostream& out);

/// Convenience file variant (atomic write).
[[nodiscard]] Status write_rows_csv_file(std::span<const ExperimentRow> rows,
                                         const std::string& path);

/// Escapes a value for CSV (quotes fields containing separators/quotes).
[[nodiscard]] std::string csv_escape(const std::string& value);

}  // namespace tbp::harness
