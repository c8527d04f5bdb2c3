// Service determinism: the daemon's responses are byte-identical no matter
// how its work is parallelized across request groups (--jobs) and whether
// a wall-clock ProfSession is attached.  Two daemons drain the same batch
// into separate spools — one serial and profiler-free, one threaded with a
// profiler — and every response file must match byte for byte.  The
// threaded drain is also the profiling quarantine check: the session fills
// with spans while no wall-clock field reaches a response.  `parallel`
// ctest label (see tests/CMakeLists).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "prof/prof.hpp"
#include "service/daemon.hpp"
#include "service/request.hpp"
#include "service/spool.hpp"

namespace tbp::service {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

TEST(ServiceDeterminismTest, ResponsesAreJobsIndependent) {
  // Two distinct cheap specs plus a duplicate, so the drain exercises both
  // the cross-group parallel_for and the dedup path.
  RequestSpec a;
  a.workload = "stream";
  a.scale.divisor = 48;
  a.sms = 4;
  RequestSpec b = a;
  b.scale.divisor = 96;
  const std::vector<std::pair<std::string, std::string>> batch = {
      {"req-a1", spec_canonical_line(a)},
      {"req-a2", spec_canonical_line(a)},
      {"req-b1", spec_canonical_line(b)},
  };

  const auto drain = [&](const std::string& spool_name, std::size_t jobs,
                         prof::ProfSession* prof) {
    const fs::path spool = fresh_dir(spool_name);
    DaemonOptions options;
    options.spool_dir = spool;
    options.jobs = jobs;
    options.prof = prof;
    Daemon daemon(options);
    EXPECT_TRUE(daemon.open().ok());
    for (const auto& [id, line] : batch) {
      EXPECT_TRUE(submit_request(spool, id, line).ok());
    }
    const auto answered = daemon.drain_once();
    EXPECT_TRUE(answered.has_value());
    std::vector<std::string> responses;
    for (const auto& [id, line] : batch) {
      const auto bytes = try_read_response(spool, id);
      EXPECT_TRUE(bytes.has_value()) << id;
      responses.push_back(bytes.has_value() ? *bytes : std::string());
    }
    return responses;
  };

  prof::ProfSession session;
  const std::vector<std::string> serial = drain("tbp_sdet_serial", 1, nullptr);
  const std::vector<std::string> threaded =
      drain("tbp_sdet_threaded", 4, &session);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(response_error(serial[i]).ok()) << batch[i].first;
    EXPECT_EQ(serial[i], threaded[i])
        << "response for " << batch[i].first
        << " differs between jobs=1 without profiling and jobs=4 with a "
           "ProfSession attached";
    EXPECT_EQ(threaded[i].find("seconds"), std::string::npos)
        << "wall-clock fields belong in the tbp-prof-v1 sidecar, not in "
        << batch[i].first << "'s response";
  }
  // The duplicate collapsed to its twin's bytes in both drains.
  EXPECT_EQ(serial[0], serial[1]);

  const auto spans = session.span_snapshot();
  const auto simulate = spans.find("service.simulate");
  ASSERT_NE(simulate, spans.end()) << "the profiled drain recorded no "
                                      "service.simulate span";
  EXPECT_GT(simulate->second.count, 0u);
}

}  // namespace
}  // namespace tbp::service
