#include "storage/local_dir.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/fault.hpp"

namespace fbf::storage {

namespace u = fbf::util;
namespace fs = std::filesystem;

namespace {

/// write(2) the whole buffer to `fd`, tolerating short writes.
bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

/// Buffers appends in memory; sync() lands them with write+fsync.  A
/// torn sync (injected) writes only a prefix and kills the handle — the
/// modeled process died mid-sync, so the unsynced suffix is gone exactly
/// like a real kill -9 between page-cache write and fsync completion.
class LocalDirAppendHandle final : public AppendHandle {
 public:
  LocalDirAppendHandle(LocalDirBackend* backend, BlobRef ref, std::string path)
      : backend_(backend), ref_(std::move(ref)), path_(std::move(path)) {}

  [[nodiscard]] u::Status append(std::string_view bytes) override {
    if (dead_) {
      return u::Status::unavailable("append handle dead after torn sync: " +
                                    ref_.name);
    }
    pending_.append(bytes);
    return {};
  }

  [[nodiscard]] u::Status sync() override {
    if (dead_) {
      return u::Status::unavailable("append handle dead after torn sync: " +
                                    ref_.name);
    }
    if (pending_.empty()) {
      return {};
    }
    std::size_t landed = pending_.size();
    if (backend_->faults() != nullptr) {
      const std::uint64_t seq = backend_->next_seq(ref_.name);
      if (backend_->faults()->put_fails(ref_.name, seq)) {
        // Clean sync failure (EIO-style): nothing landed, the buffer is
        // intact and a later sync may succeed.
        return u::Status::io_error("injected sync failure: " + ref_.name);
      }
      landed = backend_->faults()->torn_write_size(pending_.size(), ref_.name,
                                                   seq);
    }
    const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
      return u::Status::io_error("journal open failed: " + path_);
    }
    const bool wrote = write_all(fd, pending_.data(), landed);
    const bool synced = wrote && ::fsync(fd) == 0;
    ::close(fd);
    if (!synced) {
      dead_ = true;
      return u::Status::io_error("journal sync failed: " + path_);
    }
    if (landed < pending_.size()) {
      dead_ = true;  // the injected crash happened mid-sync
      return u::Status::unavailable("torn journal sync (injected crash): " +
                                    ref_.name);
    }
    pending_.clear();
    return {};
  }

  [[nodiscard]] std::size_t pending_bytes() const noexcept override {
    return pending_.size();
  }

 private:
  LocalDirBackend* backend_;
  BlobRef ref_;
  std::string path_;
  std::string pending_;
  bool dead_ = false;
};

LocalDirBackend::LocalDirBackend(std::string dir,
                                 fbf::util::FaultInjector* faults)
    : dir_(std::move(dir)) {
  faults_ = faults;
  std::error_code ec;
  fs::create_directories(dir_, ec);
}

std::string LocalDirBackend::path_of(const BlobRef& ref) const {
  return (fs::path(dir_) / ref.name).string();
}

std::uint64_t LocalDirBackend::next_seq(const std::string& name) {
  return op_seq_[name]++;
}

u::Status LocalDirBackend::put(const BlobRef& ref, std::string_view bytes) {
  const std::uint64_t seq = next_seq(ref.name);
  maybe_slow_op(ref, seq);
  const PutFate fate = draw_put_fate(ref, bytes.size(), seq);
  if (fate.fail) {
    return u::Status::io_error("injected put failure: " + ref.name);
  }
  const std::string path = path_of(ref);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (fate.landed < bytes.size()) {
    // Torn write: this backend has no atomic replace — the partial
    // object lands under the final name for recovery to find.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(fate.landed));
    out.flush();
    return u::Status::unavailable("torn put (injected crash): " + ref.name);
  }
  if (fate.lost) {
    // Acked but vanished: the replacement never lands AND the replaced
    // object is gone (the modeled replication lost the whole key).
    fs::remove(path, ec);
    return {};
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      fs::remove(tmp, ec);
      return u::Status::io_error("blob write failed: " + tmp);
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    return u::Status::io_error("blob rename failed: " + ec.message());
  }
  return {};
}

u::Result<std::string> LocalDirBackend::get(const BlobRef& ref) {
  maybe_slow_op(ref, op_seq_[ref.name]);  // reads don't advance the sequence
  const std::string path = path_of(ref);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return u::Status::not_found("blob not found: " + ref.name);
  }
  // One read into a buffer of the file's size: no growth by doubling, so
  // a multi-megabyte base leaves no oversized free chunks behind.
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return u::Status::io_error("blob stat failed: " + ref.name);
  }
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      ::close(fd);
      return u::Status::io_error("blob read failed: " + ref.name);
    }
    if (n == 0) {
      break;  // shrank under us: return what is there
    }
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(done);
  return bytes;
}

u::Result<std::vector<BlobRef>> LocalDirBackend::list(
    std::string_view prefix) {
  std::vector<BlobRef> refs;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir_, ec);
  if (ec) {
    return u::Status::io_error("list failed: " + ec.message());
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string name = fs::relative(entry.path(), dir_, ec).generic_string();
    if (ec || name.ends_with(".tmp")) {
      continue;  // in-flight temp siblings are not blobs
    }
    if (name.starts_with(prefix)) {
      refs.push_back(BlobRef{std::move(name)});
    }
  }
  std::sort(refs.begin(), refs.end());
  return refs;
}

u::Status LocalDirBackend::remove(const BlobRef& ref) {
  std::error_code ec;
  fs::remove(path_of(ref), ec);  // absent is fine: remove is idempotent
  if (ec) {
    return u::Status::io_error("blob remove failed: " + ec.message());
  }
  return {};
}

u::Result<bool> LocalDirBackend::exists(const BlobRef& ref) {
  std::error_code ec;
  return fs::exists(path_of(ref), ec);
}

u::Result<std::unique_ptr<AppendHandle>> LocalDirBackend::open_append(
    const BlobRef& ref, bool truncate) {
  const std::string path = path_of(ref);
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (truncate) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return u::Status::io_error("journal truncate failed: " + path);
    }
  }
  return std::unique_ptr<AppendHandle>(
      new LocalDirAppendHandle(this, ref, path));
}

}  // namespace fbf::storage
