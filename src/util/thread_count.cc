#include "src/util/thread_count.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

namespace seer {

StatusOr<int> ParseThreadCount(std::string_view text) {
  if (text.empty()) {
    return Status::InvalidArgument("thread count is empty");
  }
  int value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    return Status::InvalidArgument("thread count '" + std::string(text) + "' overflows");
  }
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument("thread count '" + std::string(text) +
                                   "' is not a positive integer");
  }
  if (value <= 0) {
    return Status::InvalidArgument("thread count must be positive, got '" +
                                   std::string(text) + "'");
  }
  if (value > kMaxThreads) {
    return Status::InvalidArgument("thread count '" + std::string(text) + "' exceeds the cap of " +
                                   std::to_string(kMaxThreads));
  }
  return value;
}

StatusOr<int> SeerThreadsFromEnv() {
  const char* env = std::getenv("SEER_THREADS");
  if (env == nullptr) {
    return 0;
  }
  auto parsed = ParseThreadCount(env);
  if (!parsed.ok()) {
    return Status::InvalidArgument("SEER_THREADS: " + std::string(parsed.status().message()));
  }
  return *parsed;
}

int DefaultThreadCount() {
  const auto env = SeerThreadsFromEnv();
  if (env.ok() && *env > 0) {
    return *env;
  }
  if (!env.ok()) {
    static const bool warned = [&] {
      std::fprintf(stderr, "seer: %s; using hardware concurrency\n",
                   env.status().message().c_str());
      return true;
    }();
    (void)warned;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace seer
