#include "harness/csv.hpp"

#include <filesystem>
#include <ostream>
#include <sstream>

#include "support/atomic_file.hpp"

namespace tbp::harness {

std::string csv_escape(const std::string& value) {
  // \r must be quoted too: bare carriage returns split rows for CRLF-aware
  // readers even though they are invisible on POSIX.
  if (value.find_first_of(",\"\n\r") == std::string::npos) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void write_rows_csv(std::span<const ExperimentRow> rows, std::ostream& out) {
  out << "workload,type,n_launches,total_blocks,total_warp_insts,unit_insts,"
         "full_ipc,"
         "random_ipc,random_err_pct,random_sample_pct,"
         "simpoint_ipc,simpoint_err_pct,simpoint_sample_pct,simpoint_k,"
         "systematic_ipc,systematic_err_pct,systematic_sample_pct,"
         "tbpoint_ipc,tbpoint_err_pct,tbpoint_sample_pct,tbp_clusters,"
         "inter_skip_share,full_sim_seconds,tbp_seconds,from_cache\n";
  out.precision(10);
  for (const ExperimentRow& row : rows) {
    out << csv_escape(row.workload) << ',' << (row.irregular ? "I" : "II") << ','
        << row.n_launches << ',' << row.total_blocks << ','
        << row.total_warp_insts << ',' << row.unit_insts << ',' << row.full_ipc
        << ',' << row.random.ipc << ',' << row.random.err_pct << ','
        << row.random.sample_pct << ',' << row.simpoint.ipc << ','
        << row.simpoint.err_pct << ',' << row.simpoint.sample_pct << ','
        << row.simpoint_k << ',' << row.systematic.ipc << ','
        << row.systematic.err_pct << ',' << row.systematic.sample_pct << ','
        << row.tbpoint.ipc << ',' << row.tbpoint.err_pct << ','
        << row.tbpoint.sample_pct << ',' << row.tbp_clusters << ','
        << row.inter_skip_share << ',' << row.full_sim_seconds << ','
        << row.tbp_seconds << ',' << (row.from_cache ? 1 : 0) << '\n';
  }
}

Status write_rows_csv_file(std::span<const ExperimentRow> rows,
                           const std::string& path) {
  std::ostringstream out;
  write_rows_csv(rows, out);
  return io::write_file_atomic(std::filesystem::path(path), out.str());
}

}  // namespace tbp::harness
