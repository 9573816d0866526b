#include "counting_fs.h"

#include "span_trace.h"

namespace seerbench {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;
}  // namespace

seer::StatusOr<std::string> CountingFs::ReadFile(const std::string& path) {
  Span span(SpanName::kPersistence);
  seer::StatusOr<std::string> data = base_->ReadFile(path);
  if (data.ok()) {
    bytes_read_.fetch_add(data->size(), kRelaxed);
  }
  return data;
}

seer::Status CountingFs::WriteFile(const std::string& path, std::string_view data) {
  Span span(SpanName::kPersistence);
  files_written_.fetch_add(1, kRelaxed);
  bytes_written_.fetch_add(data.size(), kRelaxed);
  return base_->WriteFile(path, data);
}

seer::Status CountingFs::AppendFile(const std::string& path, std::string_view data) {
  Span span(SpanName::kPersistence);
  bytes_written_.fetch_add(data.size(), kRelaxed);
  return base_->AppendFile(path, data);
}

seer::Status CountingFs::RenameFile(const std::string& from, const std::string& to) {
  Span span(SpanName::kPersistence);
  return base_->RenameFile(from, to);
}

seer::Status CountingFs::RemoveFile(const std::string& path) {
  Span span(SpanName::kPersistence);
  files_removed_.fetch_add(1, kRelaxed);
  return base_->RemoveFile(path);
}

seer::StatusOr<std::vector<std::string>> CountingFs::ListDir(const std::string& dir) {
  Span span(SpanName::kPersistence);
  return base_->ListDir(dir);
}

seer::Status CountingFs::MakeDirs(const std::string& dir) {
  Span span(SpanName::kPersistence);
  return base_->MakeDirs(dir);
}

seer::Status CountingFs::SyncFile(const std::string& path) {
  Span span(SpanName::kPersistence);
  syncs_.fetch_add(1, kRelaxed);
  return base_->SyncFile(path);
}

seer::Status CountingFs::SyncDir(const std::string& dir) {
  Span span(SpanName::kPersistence);
  syncs_.fetch_add(1, kRelaxed);
  return base_->SyncDir(dir);
}

bool CountingFs::Exists(const std::string& path) {
  Span span(SpanName::kPersistence);
  return base_->Exists(path);
}

seer::StatusOr<uint64_t> CountingFs::FileSize(const std::string& path) {
  Span span(SpanName::kPersistence);
  return base_->FileSize(path);
}

FsCounts CountingFs::counts() const {
  FsCounts c;
  c.bytes_written = bytes_written_.load(kRelaxed);
  c.bytes_read = bytes_read_.load(kRelaxed);
  c.syncs = syncs_.load(kRelaxed);
  c.files_written = files_written_.load(kRelaxed);
  c.files_removed = files_removed_.load(kRelaxed);
  return c;
}

}  // namespace seerbench
