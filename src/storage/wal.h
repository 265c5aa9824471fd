// The write-ahead log of the serving commit path. Each committed batch's
// accepted edit ops (the journal slice RepairService::Commit captures as
// its delta — cascade fixes are NOT logged; they are recomputed
// deterministically on replay) are appended as CRC32C-checksummed frames
// followed by a commit-marker frame, and fsynced per the configured policy
// BEFORE detection/repair runs. Recovery (recovery.h) replays complete
// batches and truncates torn or corrupt tails at the last valid commit
// marker.
//
// Frame format (little-endian):
//   [u32 length][u32 masked crc32c][u8 type][payload: length-1 bytes]
// where the CRC covers type+payload and is masked (util/crc32c.h) so a
// frame embedding another frame's CRC still checks. Types:
//   'H'  segment header: 8-byte magic "GRWALv01" + u64 first batch seq
//   'S'  symbol definition: u8 dictionary (0=label 1=attr 2=value) +
//        u32 expected id + name bytes — vocabulary entries interned since
//        the last append, so replay re-interns them at identical ids
//        before applying the batch's records (which store raw SymbolIds)
//   'R'  one EditEntry record (graph/edit_log.h binary form)
//   'C'  commit marker: u64 batch seq + u32 symbol count + u32 record
//        count for the batch
//
// A segment file `wal-<start_seq 20 digits>.log` holds batches
// [start_seq, next segment's start_seq). Rotation happens at checkpoints
// (checkpoint.h); the writer syncs the outgoing segment so a rotation
// never widens the loss window of a relaxed fsync policy.
#ifndef GREPAIR_STORAGE_WAL_H_
#define GREPAIR_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edit_log.h"
#include "storage/fs.h"

namespace grepair {
namespace storage {

/// When WAL appends reach the device. Weaker policies trade the tail of
/// the commit history (bounded by the interval / the OS flush cadence)
/// for append latency; recovery still lands on a valid PREFIX of acked
/// commits — never a torn or reordered one.
enum class FsyncPolicy {
  kEveryCommit,  ///< fsync after every commit marker (default; no loss)
  kInterval,     ///< fsync when `interval_ms` elapsed since the last sync
  kOff,          ///< never fsync; the OS decides (crash loses the tail)
};

/// `wal-<start_seq>.log` (20-digit zero-padded, so lexicographic order is
/// numeric order).
std::string WalSegmentName(uint64_t start_seq);
/// Parses a segment name; false when `name` is not one.
bool ParseWalSegmentName(const std::string& name, uint64_t* start_seq);

/// A vocabulary entry a batch interned: which dictionary, the id the
/// original process assigned (replay verifies it re-interns to the same),
/// and the name.
struct WalSymDef {
  uint8_t dict = 0;  ///< 0 = label, 1 = attr, 2 = value
  uint32_t id = 0;
  std::string name;
};

/// One complete batch: what gets appended, and what a scan reads back.
struct WalBatch {
  uint64_t seq = 0;
  std::vector<WalSymDef> symbols;  ///< interned before `records` apply
  std::vector<EditEntry> records;
};

/// Outcome of scanning one segment. Never an error for content problems:
/// a torn or corrupt tail is DATA (batches up to it are good), reported
/// via valid_size < file_size and `note`.
struct WalSegmentScan {
  uint64_t start_seq = 0;      ///< from the header frame
  std::vector<WalBatch> batches;
  uint64_t valid_size = 0;     ///< bytes up to the last valid commit marker
  uint64_t file_size = 0;
  bool header_ok = false;      ///< false => whole segment is unusable
  std::string note;            ///< first problem found, "" when clean
};

/// Scans `path` frame by frame, stopping at the first torn/corrupt frame,
/// a backwards or duplicate batch seq, or a record-count mismatch. A
/// forward seq jump is kept (recovery drops what follows a gap and counts
/// it). Only complete record+marker runs become batches. Fails only when
/// the file cannot be READ at all (kIo/kNotFound).
Result<WalSegmentScan> ReadWalSegment(Fs* fs, const std::string& path);

/// Append half of the log. Single-writer, owned by RepairService.
class WalWriter {
 public:
  /// Creates/truncates segment `wal-<start_seq>.log` in `dir`, writes its
  /// header frame, and makes the segment's existence durable (file +
  /// directory fsync) regardless of policy — rotation points are where
  /// recovery re-anchors, so they must not be lost to a crash.
  static Result<std::unique_ptr<WalWriter>> Open(Fs* fs,
                                                 const std::string& dir,
                                                 uint64_t start_seq,
                                                 FsyncPolicy policy,
                                                 uint64_t interval_ms);

  /// Appends one batch (symbol frames + record frames + the commit marker)
  /// in a single Append call, then syncs per policy. `now_ms` is the
  /// caller's clock (monotonic, milliseconds) — only read under
  /// FsyncPolicy::kInterval, passed as an argument so tests control time
  /// (the TokenBucket idiom). A failed append or sync leaves the batch NOT
  /// committed: the caller must treat the batch as rejected (undo +
  /// read-only degradation).
  Status AppendBatch(const WalBatch& batch, uint64_t now_ms);

  /// Syncs the current segment and switches appends to a fresh segment
  /// `wal-<next_seq>.log`.
  Status Rotate(uint64_t next_seq);

  /// Flushes regardless of policy (shutdown path).
  Status SyncNow();

  uint64_t appends() const { return appends_; }
  uint64_t bytes_appended() const { return bytes_; }
  uint64_t syncs() const { return syncs_; }
  const std::string& segment_path() const { return path_; }

 private:
  WalWriter(Fs* fs, std::string dir, FsyncPolicy policy, uint64_t interval_ms)
      : fs_(fs), dir_(std::move(dir)), policy_(policy),
        interval_ms_(interval_ms) {}
  Status OpenSegment(uint64_t start_seq);

  Fs* fs_;
  std::string dir_;
  FsyncPolicy policy_;
  uint64_t interval_ms_;
  std::unique_ptr<WritableFile> file_;
  std::string path_;
  uint64_t last_sync_ms_ = 0;
  bool sync_pending_ = false;  ///< appended bytes not yet fsynced
  uint64_t appends_ = 0;
  uint64_t bytes_ = 0;
  uint64_t syncs_ = 0;
};

}  // namespace storage
}  // namespace grepair

#endif  // GREPAIR_STORAGE_WAL_H_
