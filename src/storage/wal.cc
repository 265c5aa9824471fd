#include "storage/wal.h"

#include <cstring>

#include "util/crc32c.h"
#include "util/strings.h"

namespace grepair {
namespace storage {

namespace {

constexpr char kMagic[8] = {'G', 'R', 'W', 'A', 'L', 'v', '0', '1'};
constexpr char kFrameHeader = 'H';
constexpr char kFrameSymbol = 'S';
constexpr char kFrameRecord = 'R';
constexpr char kFrameCommit = 'C';
// length + crc prefix ahead of every frame body.
constexpr size_t kFramePrefix = 8;
// A record frame is at least kind + 9 u32 fields; caps below keep a
// corrupt length word from turning into a huge allocation.
constexpr uint32_t kMaxFrameLen = 1u << 30;

void PutU32(uint32_t v, std::string* out) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

uint32_t ReadU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | static_cast<uint32_t>(u[1]) << 8 |
         static_cast<uint32_t>(u[2]) << 16 | static_cast<uint32_t>(u[3]) << 24;
}

uint64_t ReadU64(const char* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         static_cast<uint64_t>(ReadU32(p + 4)) << 32;
}

/// Appends `[len][masked crc][body]` where body = type + payload.
void AppendFrame(char type, const std::string& payload, std::string* out) {
  uint32_t len = static_cast<uint32_t>(payload.size()) + 1;
  PutU32(len, out);
  uint32_t crc = Crc32cExtend(Crc32c(&type, 1), payload.data(),
                              payload.size());
  PutU32(Crc32cMask(crc), out);
  out->push_back(type);
  out->append(payload);
}

}  // namespace

std::string WalSegmentName(uint64_t start_seq) {
  return StrFormat("wal-%020llu.log",
                   static_cast<unsigned long long>(start_seq));
}

bool ParseWalSegmentName(const std::string& name, uint64_t* start_seq) {
  if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
      name.compare(24, 4, ".log") != 0)
    return false;
  uint64_t v = 0;
  for (size_t i = 4; i < 24; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *start_seq = v;
  return true;
}

Result<WalSegmentScan> ReadWalSegment(Fs* fs, const std::string& path) {
  GREPAIR_ASSIGN_OR_RETURN(std::string data, fs->ReadFile(path));
  WalSegmentScan scan;
  scan.file_size = data.size();

  // Walk frames; valid_size trails at the last durable cut point (after
  // the header, then after each commit marker). Everything else is tail.
  std::vector<WalSymDef> pending_syms;
  std::vector<EditEntry> pending;
  bool saw_header = false;
  uint64_t next_seq = 0;
  auto stop = [&](const std::string& why) {
    scan.note = why;
    return scan;
  };
  size_t cursor = 0;
  while (cursor + kFramePrefix <= data.size()) {
    uint32_t len = ReadU32(data.data() + cursor);
    uint32_t stored_crc = ReadU32(data.data() + cursor + 4);
    if (len == 0 || len > kMaxFrameLen ||
        cursor + kFramePrefix + len > data.size())
      return stop("torn frame at offset " + std::to_string(cursor));
    const char* body = data.data() + cursor + kFramePrefix;
    if (Crc32cMask(Crc32c(body, len)) != stored_crc)
      return stop("crc mismatch at offset " + std::to_string(cursor));
    const char type = body[0];
    const char* payload = body + 1;
    const size_t payload_len = len - 1;
    if (!saw_header) {
      if (type != kFrameHeader || payload_len != 16 ||
          std::memcmp(payload, kMagic, 8) != 0)
        return stop("bad segment header");
      scan.start_seq = ReadU64(payload + 8);
      next_seq = scan.start_seq;
      saw_header = true;
      scan.header_ok = true;
      cursor += kFramePrefix + len;
      scan.valid_size = cursor;
      continue;
    }
    if (type == kFrameRecord) {
      EditEntry e;
      size_t p = 0;
      std::string_view pv(payload, payload_len);
      if (!DecodeEditEntry(pv, &p, &e) || p != payload_len)
        return stop("undecodable record at offset " + std::to_string(cursor));
      pending.push_back(std::move(e));
    } else if (type == kFrameSymbol) {
      if (payload_len < 5 || static_cast<uint8_t>(payload[0]) > 2)
        return stop("bad symbol frame at offset " + std::to_string(cursor));
      WalSymDef s;
      s.dict = static_cast<uint8_t>(payload[0]);
      s.id = ReadU32(payload + 1);
      s.name.assign(payload + 5, payload_len - 5);
      pending_syms.push_back(std::move(s));
    } else if (type == kFrameCommit) {
      if (payload_len != 16)
        return stop("bad commit marker at offset " + std::to_string(cursor));
      uint64_t seq = ReadU64(payload);
      uint32_t sym_count = ReadU32(payload + 8);
      uint32_t rec_count = ReadU32(payload + 12);
      // A forward jump is kept: the batches past it are complete and
      // CRC-valid, so PlanRecovery counts them as dropped after a seq gap
      // — the same handling as a gap between segments — instead of
      // truncating them as a torn tail. Backwards or duplicate seqs stop.
      if (seq < next_seq)
        return stop(StrFormat("batch seq %llu where %llu expected",
                              (unsigned long long)seq,
                              (unsigned long long)next_seq));
      if (sym_count != pending_syms.size() || rec_count != pending.size())
        return stop(StrFormat(
            "commit marker counts %u+%u != %zu symbols + %zu records",
            sym_count, rec_count, pending_syms.size(), pending.size()));
      WalBatch b;
      b.seq = seq;
      b.symbols = std::move(pending_syms);
      b.records = std::move(pending);
      pending_syms.clear();
      pending.clear();
      scan.batches.push_back(std::move(b));
      next_seq = seq + 1;
      scan.valid_size = cursor + kFramePrefix + len;
    } else {
      return stop("unknown frame type at offset " + std::to_string(cursor));
    }
    cursor += kFramePrefix + len;
  }
  if (cursor < data.size() && scan.note.empty())
    scan.note = "trailing bytes at offset " + std::to_string(cursor);
  if ((!pending.empty() || !pending_syms.empty()) && scan.note.empty())
    scan.note = "records without commit marker";
  return scan;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Fs* fs,
                                                   const std::string& dir,
                                                   uint64_t start_seq,
                                                   FsyncPolicy policy,
                                                   uint64_t interval_ms) {
  std::unique_ptr<WalWriter> w(new WalWriter(fs, dir, policy, interval_ms));
  GREPAIR_RETURN_IF_ERROR(w->OpenSegment(start_seq));
  return w;
}

Status WalWriter::OpenSegment(uint64_t start_seq) {
  path_ = dir_ + "/" + WalSegmentName(start_seq);
  // Truncate: the only way this name already exists is a torn segment that
  // contributed zero complete batches (otherwise recovery would have
  // resumed past it) — its bytes are dead.
  GREPAIR_ASSIGN_OR_RETURN(file_, fs_->OpenWritable(path_, /*truncate=*/true));
  std::string header;
  header.append(kMagic, 8);
  PutU64(start_seq, &header);
  std::string frame;
  AppendFrame(kFrameHeader, header, &frame);
  GREPAIR_RETURN_IF_ERROR(file_->Append(frame.data(), frame.size()));
  GREPAIR_RETURN_IF_ERROR(file_->Sync());
  GREPAIR_RETURN_IF_ERROR(fs_->SyncDir(dir_));
  bytes_ += frame.size();
  ++syncs_;
  sync_pending_ = false;
  return Status::Ok();
}

Status WalWriter::AppendBatch(const WalBatch& batch, uint64_t now_ms) {
  std::string buf;
  std::string payload;
  for (const WalSymDef& s : batch.symbols) {
    payload.clear();
    payload.push_back(static_cast<char>(s.dict));
    PutU32(s.id, &payload);
    payload.append(s.name);
    AppendFrame(kFrameSymbol, payload, &buf);
  }
  for (const EditEntry& rec : batch.records) {
    payload.clear();
    EncodeEditEntry(rec, &payload);
    AppendFrame(kFrameRecord, payload, &buf);
  }
  payload.clear();
  PutU64(batch.seq, &payload);
  PutU32(static_cast<uint32_t>(batch.symbols.size()), &payload);
  PutU32(static_cast<uint32_t>(batch.records.size()), &payload);
  AppendFrame(kFrameCommit, payload, &buf);

  GREPAIR_RETURN_IF_ERROR(file_->Append(buf.data(), buf.size()));
  ++appends_;
  bytes_ += buf.size();
  sync_pending_ = true;
  switch (policy_) {
    case FsyncPolicy::kEveryCommit:
      return SyncNow();
    case FsyncPolicy::kInterval:
      if (now_ms - last_sync_ms_ >= interval_ms_) {
        Status st = SyncNow();
        last_sync_ms_ = now_ms;
        return st;
      }
      return Status::Ok();
    case FsyncPolicy::kOff:
      return Status::Ok();
  }
  return Status::Ok();
}

Status WalWriter::SyncNow() {
  if (!sync_pending_) return Status::Ok();
  GREPAIR_RETURN_IF_ERROR(file_->Sync());
  ++syncs_;
  sync_pending_ = false;
  return Status::Ok();
}

Status WalWriter::Rotate(uint64_t next_seq) {
  // The outgoing segment is synced no matter the policy: rotation points
  // anchor checkpoint fallback, and a lost tail there would silently
  // shorten the range an older checkpoint can replay.
  GREPAIR_RETURN_IF_ERROR(SyncNow());
  GREPAIR_RETURN_IF_ERROR(file_->Close());
  return OpenSegment(next_seq);
}

}  // namespace storage
}  // namespace grepair
