// A counting Fs decorator: the benchmark's view of the persistence layer.
//
// Forwards every call to the wrapped Fs (MemFs here, so no device is
// involved and a sync is free) and counts what the snapshot store and WAL
// asked of it: bytes written and read, syncs, files written whole
// (snapshots, aux sections, temp files) and files removed.
// Counters are atomic because the checkpoint plane writes from background
// threads. On the thread with an installed SpanTrace, each call is also a
// persistence span.
#ifndef PERFBENCH_SRC_COUNTING_FS_H_
#define PERFBENCH_SRC_COUNTING_FS_H_

#include <atomic>
#include <cstdint>

#include "src/util/fs.h"

namespace seerbench {

struct FsCounts {
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t syncs = 0;
  uint64_t files_written = 0;  // WriteFile calls: each creates or truncates a file
  uint64_t files_removed = 0;
};

class CountingFs : public seer::Fs {
 public:
  explicit CountingFs(seer::Fs* base) : base_(base) {}

  seer::StatusOr<std::string> ReadFile(const std::string& path) override;
  seer::Status WriteFile(const std::string& path, std::string_view data) override;
  seer::Status AppendFile(const std::string& path, std::string_view data) override;
  seer::Status RenameFile(const std::string& from, const std::string& to) override;
  seer::Status RemoveFile(const std::string& path) override;
  seer::StatusOr<std::vector<std::string>> ListDir(const std::string& dir) override;
  seer::Status MakeDirs(const std::string& dir) override;
  seer::Status SyncFile(const std::string& path) override;
  seer::Status SyncDir(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  seer::StatusOr<uint64_t> FileSize(const std::string& path) override;

  FsCounts counts() const;

 private:
  seer::Fs* base_;
  std::atomic<uint64_t> bytes_written_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> files_written_{0};
  std::atomic<uint64_t> files_removed_{0};
};

}  // namespace seerbench

#endif  // PERFBENCH_SRC_COUNTING_FS_H_
