// Copyright (c) swsample authors. Licensed under the MIT license.
//
// The FileOps seam: every durable-file primitive used by the persistence
// and ingestion layers (checkpoint shards, MANIFEST commits, keyed spill
// files, the async restore lane, ingestion opens) funnels through these
// functions. Each takes a failpoint *site* name, so a deterministic fault
// — transient error, torn write, fsync lie, failed rename — can be
// injected at exactly that layer (see util/failpoint.h for the grammar).
// Unarmed, the seam adds one relaxed atomic load per operation on top of
// the syscalls it wraps.
//
// Error classification: failures that rewriting the same bytes may cure
// (ENOSPC, EIO, interrupted syscalls, fd exhaustion, every injected
// transient) come back as `Status::Unavailable` — `retryable()` — while
// misuse (missing directory, bad path) stays `InvalidArgument`. `RetryIo`
// is the matching driver: bounded attempts with exponential, seeded,
// deterministic jitter, stopping early on permanent errors.

#ifndef SWSAMPLE_UTIL_FILE_OPS_H_
#define SWSAMPLE_UTIL_FILE_OPS_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace swsample {

/// Bounded-retry schedule for idempotent I/O. Attempt `a` (1-based retry
/// index) sleeps `backoff_ms * 2^(a-1)` capped at `backoff_max_ms`, scaled
/// by a deterministic jitter in [0.5, 1.0) derived from (seed, op_id,
/// attempt) — no shared RNG state, so concurrent retriers stay
/// reproducible. `max_attempts = 1` disables retrying.
struct RetryPolicy {
  uint32_t max_attempts = 3;
  double backoff_ms = 0.05;
  double backoff_max_ms = 10.0;
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

/// The deterministic sleep before retry `attempt` (1-based) of `op_id`.
/// Exposed for tests; RetryIo uses it verbatim.
double RetryBackoffSeconds(const RetryPolicy& policy, uint64_t op_id,
                           uint32_t attempt);

/// Runs `op` up to `policy.max_attempts` times while it fails with a
/// retryable status, sleeping the jittered backoff between attempts and
/// bumping `*io_retries` (nullable) once per retry. Returns the first
/// success, the first permanent error, or the last retryable error when
/// attempts are exhausted. `op_id` salts the jitter stream (use the key,
/// shard index, or another stable operation identity).
Status RetryIo(const RetryPolicy& policy, uint64_t op_id, uint64_t* io_retries,
               const std::function<Status()>& op);

/// Writes `data` to `path` via `path + ".tmp"` + optional fsync + atomic
/// rename. The fsync-before-rename matters: without it a crash can commit
/// the rename (metadata) before the file contents, leaving a readable name
/// full of garbage. The temp file is unlinked on every error path, so a
/// failed write never leaks a `.tmp` (crash-orphaned temps are handled by
/// SweepTempFiles). Injection at `site`: enospc/eio fail mid-write,
/// fsync/rename fail the commit step — all retryable — while `torn`
/// silently publishes a truncated file and reports success, as a crash
/// between write and rename would.
Status AtomicWriteFile(const char* site, const std::string& path,
                       std::string_view data, bool do_fsync);

/// Reads the whole file. Open/read failures on an existing path are
/// retryable; a missing file is permanent. Injection at `site`:
/// enospc/eio/fsync/rename fail the read (retryable); `torn` silently
/// returns a truncated prefix.
Result<std::string> ReadFileBytes(const char* site, const std::string& path);

/// Persists the directory entries themselves (the renames above) so a
/// commit survives power loss. Best-effort on filesystems that reject
/// directory fsync; no injection (the interesting fsync lies live in
/// AtomicWriteFile's commit step).
void SyncDirectory(const std::string& dir);

/// Unlinks `path`. Missing file is Ok (idempotent). Injection at `site`
/// fails it with a retryable error.
Status RemoveFile(const char* site, const std::string& path);

/// Opens `path` for reading (the drivers' EventReader input). Caller
/// std::fcloses the handle. Injection at `site` fails the open with a
/// retryable error.
Result<std::FILE*> OpenStdioFile(const char* site, const std::string& path);

/// Unlinks every directory entry whose name ends in ".tmp" — temps
/// orphaned by a crash between write and rename. Returns the number
/// removed. Safe on a missing directory (returns 0).
uint64_t SweepTempFiles(const std::string& dir);

}  // namespace swsample

#endif  // SWSAMPLE_UTIL_FILE_OPS_H_
