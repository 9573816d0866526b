// Thread counts from outside input: the `--io-threads` flag and the
// SEER_THREADS environment variable, which size the hoard service's I/O
// shards (HoardServiceConfig::io_threads).
#ifndef SRC_UTIL_THREAD_COUNT_H_
#define SRC_UTIL_THREAD_COUNT_H_

#include <string_view>

#include "src/util/status.h"

namespace seer {

// Strict thread-count parse: a positive decimal integer with no leading or
// trailing garbage, at most kMaxThreads. Zero, negatives, overflow, and
// non-numeric text are errors — never a silent fallback.
constexpr int kMaxThreads = 4096;
StatusOr<int> ParseThreadCount(std::string_view text);

// The SEER_THREADS environment variable, validated: Ok(0) when unset (the
// caller picks its own default), Ok(n > 0) when set to a valid count, and
// an InvalidArgument status naming the bad value otherwise. seerctl and
// the benches fail fast on the error; DefaultThreadCount() warns once.
StatusOr<int> SeerThreadsFromEnv();

// The default I/O shard count: the validated SEER_THREADS when set,
// otherwise std::thread::hardware_concurrency(). An *invalid* SEER_THREADS
// is reported to stderr once per process and then ignored (constructors
// cannot propagate a Status); front ends validate SeerThreadsFromEnv()
// at startup so a user-facing run dies with the real error instead.
int DefaultThreadCount();

}  // namespace seer

#endif  // SRC_UTIL_THREAD_COUNT_H_
