// Fixture: standard mutexes declared by name outside par::Synchronized.  A
// namespace-scope std::shared_mutex and a member std::mutex are flagged; a
// std::mutex& parameter, a lock's template argument and a justified
// suppression are not.
#include <mutex>
#include <shared_mutex>

namespace {

std::shared_mutex g_registry_mutex;

}  // namespace

class Counter {
 public:
  void bump(std::mutex& outer);

 private:
  std::mutex mutex_;
  long value_ = 0;
};

void Counter::bump(std::mutex& outer) {
  std::unique_lock<std::mutex> lock(outer);
  value_ += 1;
}

std::mutex g_sanctioned;  // tbp-lint: allow(bare-mutex) -- fixture: exercises the justified exception
