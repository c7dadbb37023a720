// Crash-safe, fingerprint-keyed result cache for the campaign service.
//
// On disk the cache is a single append-only log of self-verifying records:
//
//   PCDC1 <key:16hex> <payload-bytes> <payload-digest:16hex>\n
//   <payload>\n
//
// where the payload is a strict-JSON serialization of one CellResult with
// hex-float doubles (byte-exact round trip) and the digest is FNV-1a over
// the payload bytes.  Appends are a single write(2) followed by fsync, so
// the only state a crash (kill -9 included) can leave behind is a torn
// *tail*: recovery scans the log, keeps every verified record, and
// truncates the file at the first malformed / short / digest-mismatched
// byte.  Everything before that point is provably intact.
//
// In memory the cache keeps no payloads, only an index from key to where
// the payload lives in the log (offset, length, digest).  A hit reads the
// bytes back, re-checks the digest and decodes them outside the lock, so
// memory does not grow with the payload bytes the log already holds.
// Without a cache dir the same index points into an in-memory byte log.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "campaign/result.hpp"

namespace pcd::service {

struct CacheStats {
  std::int64_t entries = 0;    // live entries in memory
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t inserts = 0;
  std::int64_t recovered = 0;  // live entries recovered from the log at open
  std::int64_t corrupt = 0;    // framed records whose digest did not verify,
                               // at open or when a hit read them back
  std::int64_t torn_bytes = 0; // bytes truncated off the log tail at open

  double hit_ratio() const {
    const std::int64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

class ResultCache {
 public:
  /// `dir` is created if missing; "" disables persistence (pure in-memory).
  /// `sync` fsyncs every append (the crash-safety contract; tests that
  /// hammer the cache may turn it off).
  explicit ResultCache(std::string dir, bool sync = true);
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Thread-safe.  A hit returns a decoded copy; hit/miss counters update.
  /// Bytes that no longer match their digest are a miss, never a wrong cell.
  std::optional<campaign::CellResult> lookup(std::uint64_t key);

  /// Thread-safe.  Overwrites an existing key; the log append is one
  /// write + fsync (last record wins at recovery).  A failed or short
  /// append is cut back off the log and leaves the key as it was.
  void insert(std::uint64_t key, const campaign::CellResult& cell);

  /// Graceful-drain hook: fsyncs the log, the only durability point when
  /// appends are not synced.  No-op without a cache dir.
  void sync();

  CacheStats stats() const;

  // Payload codec (exposed for tests): strict JSON, hex-float doubles.
  // decode returns false on any malformed or missing field.
  static std::string encode(const campaign::CellResult& cell);
  static bool decode(const std::string& payload, campaign::CellResult* out);

 private:
  // Where one verified payload lives in the log.
  struct Slot {
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t digest = 0;  // FNV-1a of the payload bytes
    bool operator==(const Slot&) const = default;
  };

  void recover();

  std::string log_path() const { return dir_ + "/results.log"; }

  mutable std::mutex mu_;
  std::string dir_;
  bool sync_;
  int log_fd_ = -1;            // -1: no log file, records go to mem_log_
  std::uint64_t log_size_ = 0; // end of the last intact append to log_fd_
  std::string mem_log_;
  std::map<std::uint64_t, Slot> index_;
  CacheStats stats_;
};

}  // namespace pcd::service
