// Copyright (c) swsample authors. Licensed under the MIT license.

#include "util/file_ops.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "util/failpoint.h"
#include "util/rng.h"

namespace swsample {
namespace {

namespace fs = std::filesystem;

/// Maps an errno from a file operation on a known-valid path to the
/// transient/permanent split RetryIo keys off. ENOENT stays permanent:
/// a missing file or directory will not appear by retrying.
Status ErrnoStatus(const char* what, const std::string& path, int err) {
  const std::string msg = std::string("io: ") + what + " " + path + ": " +
                          std::strerror(err);
  switch (err) {
    case ENOSPC:
    case EIO:
    case EINTR:
    case EAGAIN:
    case EMFILE:
    case ENFILE:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return Status::Unavailable(msg);
    default:
      return Status::InvalidArgument(msg);
  }
}

Status InjectedError(FaultClass fault, const char* what,
                     const std::string& path) {
  return Status::Unavailable(std::string("io: injected ") +
                             FaultClassName(fault) + " fault: " + what + " " +
                             path);
}

}  // namespace

double RetryBackoffSeconds(const RetryPolicy& policy, uint64_t op_id,
                           uint32_t attempt) {
  if (attempt == 0) return 0.0;
  double base_ms = policy.backoff_ms;
  for (uint32_t a = 1; a < attempt && base_ms < policy.backoff_max_ms; ++a) {
    base_ms *= 2.0;
  }
  if (base_ms > policy.backoff_max_ms) base_ms = policy.backoff_max_ms;
  const uint64_t bits =
      Rng::ForkSeed(Rng::ForkSeed(policy.seed, op_id), attempt);
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return base_ms * (0.5 + 0.5 * u) / 1e3;
}

Status RetryIo(const RetryPolicy& policy, uint64_t op_id, uint64_t* io_retries,
               const std::function<Status()>& op) {
  const uint32_t attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  Status last;
  for (uint32_t a = 0; a < attempts; ++a) {
    if (a > 0) {
      if (io_retries != nullptr) ++*io_retries;
      const double secs = RetryBackoffSeconds(policy, op_id, a);
      if (secs > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(secs));
      }
    }
    last = op();
    if (last.ok() || !last.retryable()) return last;
  }
  return last;
}

Status AtomicWriteFile(const char* site, const std::string& path,
                       std::string_view data, bool do_fsync) {
  const FaultClass fault = Failpoint::At(site).Hit();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return ErrnoStatus("cannot create", tmp, errno);
  }
  // A torn fault publishes a strict prefix (what a crash between write
  // and rename leaves behind); transient write faults stop at the same
  // prefix but report the failure.
  size_t write_len = data.size();
  if (fault == FaultClass::kTorn ||
      (fault == FaultClass::kEnospc || fault == FaultClass::kEio)) {
    write_len = data.size() / 2;
  }
  bool ok = (write_len == 0 ||
             std::fwrite(data.data(), 1, write_len, f) == write_len) &&
            std::fflush(f) == 0;
  const int write_err = ok ? 0 : (errno != 0 ? errno : EIO);
#ifndef _WIN32
  int fsync_err = 0;
  if (ok && do_fsync && fault != FaultClass::kTorn) {
    if (fsync(fileno(f)) != 0) {
      fsync_err = errno != 0 ? errno : EIO;
      ok = false;
    }
  }
#else
  const int fsync_err = 0;
  (void)do_fsync;
#endif
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    if (write_err != 0) return ErrnoStatus("short write to", tmp, write_err);
    return ErrnoStatus("cannot fsync", tmp, fsync_err);
  }
  if (fault == FaultClass::kEnospc || fault == FaultClass::kEio) {
    std::remove(tmp.c_str());
    return InjectedError(fault, "writing", path);
  }
  if (fault == FaultClass::kFsync) {
    std::remove(tmp.c_str());
    return InjectedError(fault, "syncing", path);
  }
  if (fault == FaultClass::kRename) {
    std::remove(tmp.c_str());
    return InjectedError(fault, "renaming", path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno != 0 ? errno : EIO;
    std::remove(tmp.c_str());
    return ErrnoStatus("cannot rename", tmp, err);
  }
  return Status::Ok();
}

Result<std::string> ReadFileBytes(const char* site, const std::string& path) {
  const FaultClass fault = Failpoint::At(site).Hit();
  if (fault != FaultClass::kNone && fault != FaultClass::kTorn) {
    return InjectedError(fault, "reading", path);
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return ErrnoStatus("cannot open", path, errno);
  }
  std::string data;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, got);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) {
    return Status::Unavailable("io: read error on " + path);
  }
  if (fault == FaultClass::kTorn) data.resize(data.size() / 2);
  return data;
}

void SyncDirectory(const std::string& dir) {
#ifndef _WIN32
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
#else
  (void)dir;
#endif
}

Status RemoveFile(const char* site, const std::string& path) {
  const FaultClass fault = Failpoint::At(site).Hit();
  if (fault != FaultClass::kNone && fault != FaultClass::kTorn) {
    return InjectedError(fault, "unlinking", path);
  }
  if (std::remove(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoStatus("cannot unlink", path, errno);
  }
  return Status::Ok();
}

Result<std::FILE*> OpenStdioFile(const char* site, const std::string& path) {
  const FaultClass fault = Failpoint::At(site).Hit();
  if (fault != FaultClass::kNone) {
    return InjectedError(fault, "opening", path);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return ErrnoStatus("cannot open", path, errno);
  }
  return f;
}

uint64_t SweepTempFiles(const std::string& dir) {
  std::error_code ec;
  uint64_t removed = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".tmp") != 0) {
      continue;
    }
    std::error_code rm_ec;
    if (fs::remove(entry.path(), rm_ec)) ++removed;
  }
  return removed;
}

}  // namespace swsample
