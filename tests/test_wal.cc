// Durability subsystem tests: CRC32C vectors, the EditEntry binary codec,
// WAL frame scanning under torn/corrupt tails, checkpoint validation and
// retention, recovery planning, fsync-policy loss windows on MemFs, and the
// service-level contract — a RepairService restarted against the same
// --wal directory recovers the acked committed prefix bit-identically.
//
// The capstone is the crash-point sweep: FaultFs fail-stops the workload at
// EVERY mutating file operation in turn; after each crash the recovered
// service's serialized state must equal the crashed service's, byte for
// byte (SaveState's serialization is id-compacting, so the comparison is
// insensitive to checkpoint swap points — exactly the durability contract).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "eval/experiment.h"
#include "graph/edit_log.h"
#include "serve/repair_service.h"
#include "serve/session.h"
#include "storage/checkpoint.h"
#include "storage/fault_fs.h"
#include "storage/fs.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/strings.h"

namespace grepair {
namespace {

using storage::FaultFs;
using storage::FaultPlan;
using storage::Fs;
using storage::FsyncPolicy;
using storage::MemFs;
using storage::RecoveryPlan;
using storage::WalBatch;
using storage::WalSegmentScan;
using storage::WalSymDef;
using storage::WalWriter;

// ------------------------------------------------------------------ crc32c

TEST(Crc32cTest, MatchesReferenceVector) {
  // RFC 3720 reference: "123456789" under Castagnoli.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ExtendEqualsConcatenation) {
  const std::string a = "hello ", b = "durable world";
  EXPECT_EQ(Crc32cExtend(Crc32c(a.data(), a.size()), b.data(), b.size()),
            Crc32c((a + b).data(), a.size() + b.size()));
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  uint32_t crc = Crc32c("123456789", 9);
  EXPECT_NE(Crc32cMask(crc), crc);
  EXPECT_EQ(Crc32cUnmask(Crc32cMask(crc)), crc);
}

// ------------------------------------------------------------- edit codec

TEST(EditCodecTest, RoundTripsEveryKind) {
  std::vector<EditEntry> entries;
  for (uint8_t k = 0; k <= static_cast<uint8_t>(EditKind::kSetEdgeAttr); ++k) {
    EditEntry e;
    e.kind = static_cast<EditKind>(k);
    e.node = 7 + k;
    e.edge = 9 + k;
    e.src = 1;
    e.dst = 2;
    e.label = 3;
    e.attr = 4;
    e.old_sym = 5;
    e.new_sym = 6;
    if (k % 2) e.attr_snapshot = {{1, 2}, {3, 0}};
    entries.push_back(e);
  }
  std::string buf;
  for (const EditEntry& e : entries) EncodeEditEntry(e, &buf);
  size_t pos = 0;
  for (const EditEntry& want : entries) {
    EditEntry got;
    ASSERT_TRUE(DecodeEditEntry(buf, &pos, &got));
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.node, want.node);
    EXPECT_EQ(got.edge, want.edge);
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.attr, want.attr);
    EXPECT_EQ(got.old_sym, want.old_sym);
    EXPECT_EQ(got.new_sym, want.new_sym);
    EXPECT_EQ(got.attr_snapshot, want.attr_snapshot);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(EditCodecTest, RejectsTruncationAndBadKind) {
  EditEntry e;
  e.kind = EditKind::kAddNode;
  e.label = 42;
  std::string buf;
  EncodeEditEntry(e, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    size_t pos = 0;
    EditEntry out;
    EXPECT_FALSE(DecodeEditEntry(std::string_view(buf.data(), cut), &pos, &out))
        << "cut " << cut;
  }
  std::string bad = buf;
  bad[0] = static_cast<char>(200);  // not an EditKind
  size_t pos = 0;
  EditEntry out;
  EXPECT_FALSE(DecodeEditEntry(bad, &pos, &out));
}

// ------------------------------------------------------------- file names

TEST(StorageNamesTest, SegmentAndCheckpointNamesRoundTrip) {
  uint64_t seq = 0;
  EXPECT_EQ(storage::WalSegmentName(42), "wal-00000000000000000042.log");
  EXPECT_TRUE(storage::ParseWalSegmentName("wal-00000000000000000042.log",
                                           &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(storage::ParseWalSegmentName("wal-42.log", &seq));
  EXPECT_FALSE(storage::ParseWalSegmentName("wal-0000000000000000004x.log",
                                            &seq));

  EXPECT_EQ(storage::CheckpointName(7), "checkpoint-00000000000000000007.ckpt");
  EXPECT_TRUE(storage::ParseCheckpointName(
      "checkpoint-00000000000000000007.ckpt", &seq));
  EXPECT_EQ(seq, 7u);
  EXPECT_FALSE(storage::ParseCheckpointName("checkpoint-7.ckpt", &seq));
  EXPECT_FALSE(storage::ParseCheckpointName(
      "checkpoint-00000000000000000007.ckpt.corrupt", &seq));
}

// -------------------------------------------------------- writer and scan

// A small deterministic batch: one symbol definition + two records.
WalBatch MakeBatch(uint64_t seq) {
  WalBatch b;
  b.seq = seq;
  WalSymDef s;
  s.dict = static_cast<uint8_t>(seq % 3);
  s.id = static_cast<uint32_t>(10 + seq);
  s.name = StrFormat("sym-%llu", static_cast<unsigned long long>(seq));
  b.symbols.push_back(s);
  EditEntry e1;
  e1.kind = EditKind::kAddNode;
  e1.label = static_cast<SymbolId>(seq);
  EditEntry e2;
  e2.kind = EditKind::kSetNodeAttr;
  e2.node = static_cast<NodeId>(seq);
  e2.attr = 2;
  e2.new_sym = 3;
  b.records = {e1, e2};
  return b;
}

TEST(WalWriterTest, AppendAndScanRoundTrip) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("wal").ok());
  auto w = WalWriter::Open(&fs, "wal", 1, FsyncPolicy::kEveryCommit, 0);
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  for (uint64_t seq = 1; seq <= 3; ++seq)
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(seq), 0).ok());

  auto scan = storage::ReadWalSegment(&fs, "wal/" + storage::WalSegmentName(1));
  ASSERT_TRUE(scan.ok());
  const WalSegmentScan& s = scan.value();
  EXPECT_TRUE(s.header_ok);
  EXPECT_EQ(s.start_seq, 1u);
  EXPECT_EQ(s.note, "");
  EXPECT_EQ(s.valid_size, s.file_size);
  ASSERT_EQ(s.batches.size(), 3u);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const WalBatch& b = s.batches[seq - 1];
    EXPECT_EQ(b.seq, seq);
    ASSERT_EQ(b.symbols.size(), 1u);
    EXPECT_EQ(b.symbols[0].id, 10 + seq);
    EXPECT_EQ(b.symbols[0].name,
              StrFormat("sym-%llu", static_cast<unsigned long long>(seq)));
    ASSERT_EQ(b.records.size(), 2u);
    EXPECT_EQ(b.records[0].kind, EditKind::kAddNode);
    EXPECT_EQ(b.records[1].kind, EditKind::kSetNodeAttr);
  }
}

TEST(WalWriterTest, RotateStartsAFreshSegment) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("wal").ok());
  auto w = WalWriter::Open(&fs, "wal", 1, FsyncPolicy::kEveryCommit, 0);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(1), 0).ok());
  ASSERT_TRUE(w.value()->Rotate(2).ok());
  ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(2), 0).ok());
  EXPECT_EQ(w.value()->segment_path(), "wal/" + storage::WalSegmentName(2));

  auto s1 = storage::ReadWalSegment(&fs, "wal/" + storage::WalSegmentName(1));
  auto s2 = storage::ReadWalSegment(&fs, "wal/" + storage::WalSegmentName(2));
  ASSERT_TRUE(s1.ok() && s2.ok());
  ASSERT_EQ(s1.value().batches.size(), 1u);
  ASSERT_EQ(s2.value().batches.size(), 1u);
  EXPECT_EQ(s2.value().batches[0].seq, 2u);
}

TEST(WalScanTest, TornTailTruncatesToLastCommit) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("wal").ok());
  const std::string path = "wal/" + storage::WalSegmentName(1);
  {
    auto w = WalWriter::Open(&fs, "wal", 1, FsyncPolicy::kEveryCommit, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(1), 0).ok());
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(2), 0).ok());
  }
  uint64_t clean_size = fs.FileSize(path).value();
  // Torn tail: half a frame prefix claiming a huge length.
  auto f = fs.OpenWritable(path, /*truncate=*/false);
  ASSERT_TRUE(f.ok());
  const char garbage[] = {127, 0, 0, 64, 1};
  ASSERT_TRUE(f.value()->Append(garbage, sizeof(garbage)).ok());

  auto scan = storage::ReadWalSegment(&fs, path);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().batches.size(), 2u);
  EXPECT_EQ(scan.value().valid_size, clean_size);
  EXPECT_GT(scan.value().file_size, clean_size);
  EXPECT_NE(scan.value().note, "");
}

TEST(WalScanTest, BitFlipIsCaughtByCrc) {
  MemFs mem;
  FaultFs fs(&mem);
  ASSERT_TRUE(fs.CreateDir("wal").ok());
  auto w = WalWriter::Open(&fs, "wal", 1, FsyncPolicy::kEveryCommit, 0);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(1), 0).ok());
  // A fat attr snapshot makes the record frame dominate the batch buffer,
  // so the flip (at the buffer's midpoint) lands inside its body and the
  // frame CRC — not the framing itself — is what catches it.
  WalBatch fat = MakeBatch(2);
  for (uint32_t i = 0; i < 60; ++i)
    fat.records[0].attr_snapshot.emplace_back(i, i + 1);
  FaultPlan plan;
  plan.bit_flip_op = fs.ops();  // the next append lands corrupted
  fs.set_plan(plan);
  ASSERT_TRUE(w.value()->AppendBatch(fat, 0).ok());  // silent

  auto scan = storage::ReadWalSegment(&mem, "wal/" + storage::WalSegmentName(1));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().batches.size(), 1u);  // batch 2 must NOT replay
  EXPECT_NE(scan.value().note.find("crc mismatch"), std::string::npos)
      << scan.value().note;
  EXPECT_LT(scan.value().valid_size, scan.value().file_size);
}

TEST(WalScanTest, ShortWriteLeavesReplayablePrefix) {
  MemFs mem;
  FaultFs fs(&mem);
  ASSERT_TRUE(fs.CreateDir("wal").ok());
  auto w = WalWriter::Open(&fs, "wal", 1, FsyncPolicy::kEveryCommit, 0);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(1), 0).ok());
  FaultPlan plan;
  plan.short_write_op = fs.ops();
  fs.set_plan(plan);
  EXPECT_FALSE(w.value()->AppendBatch(MakeBatch(2), 0).ok());

  auto scan = storage::ReadWalSegment(&mem, "wal/" + storage::WalSegmentName(1));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().batches.size(), 1u);
  EXPECT_LT(scan.value().valid_size, scan.value().file_size);
  EXPECT_NE(scan.value().note, "");
}

// ---------------------------------------------------------- fsync policies

// Batches that survive the pessimistic crash (everything unsynced lost)
// after three appends under `policy`, with the injected clock at t=0, 150,
// 160 ms.
size_t SurvivingBatches(FsyncPolicy policy) {
  MemFs fs;
  EXPECT_TRUE(fs.CreateDir("wal").ok());
  auto w = WalWriter::Open(&fs, "wal", 1, policy, /*interval_ms=*/100);
  EXPECT_TRUE(w.ok());
  const uint64_t clock[] = {0, 150, 160};
  for (uint64_t seq = 1; seq <= 3; ++seq)
    EXPECT_TRUE(w.value()->AppendBatch(MakeBatch(seq), clock[seq - 1]).ok());
  fs.DropUnsynced();
  auto scan = storage::ReadWalSegment(&fs, "wal/" + storage::WalSegmentName(1));
  EXPECT_TRUE(scan.ok());
  return scan.value().batches.size();
}

TEST(FsyncPolicyTest, EveryCommitLosesNothing) {
  EXPECT_EQ(SurvivingBatches(FsyncPolicy::kEveryCommit), 3u);
}

TEST(FsyncPolicyTest, IntervalBoundsTheLossWindow) {
  // t=0 within the interval (no sync), t=150 syncs batches 1-2, t=160 not.
  EXPECT_EQ(SurvivingBatches(FsyncPolicy::kInterval), 2u);
}

TEST(FsyncPolicyTest, OffLosesTheUnflushedTail) {
  // The segment header is synced at open regardless; every batch is lost.
  EXPECT_EQ(SurvivingBatches(FsyncPolicy::kOff), 0u);
}

// ------------------------------------------------------------- checkpoints

TEST(CheckpointTest, WriteReadRoundTrip) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  const std::string payload = "# grepair service state v1\nN 0 1\n";
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 5, payload).ok());
  auto got = storage::ReadCheckpoint(&fs, "d/" + storage::CheckpointName(5), 5);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), payload);
  // No stray temp file survives the atomic rename.
  std::vector<std::string> names = fs.ListDir("d").value();
  for (const std::string& name : names)
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
}

TEST(CheckpointTest, CorruptionAndSeqMismatchAreDataLoss) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 5, "payload bytes").ok());
  const std::string path = "d/" + storage::CheckpointName(5);

  auto wrong_seq = storage::ReadCheckpoint(&fs, path, 6);
  EXPECT_EQ(wrong_seq.status().code(), StatusCode::kDataLoss);

  // Flip a payload byte: the length still matches, the CRC must not.
  std::string bytes = fs.ReadFile(path).value();
  bytes[bytes.size() - 3] ^= 0x01;
  auto f = fs.OpenWritable(path, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append(bytes.data(), bytes.size()).ok());
  auto corrupt = storage::ReadCheckpoint(&fs, path, 5);
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss);

  auto missing = storage::ReadCheckpoint(&fs, "d/nope", 5);
  EXPECT_NE(missing.status().code(), StatusCode::kDataLoss);
}

TEST(CheckpointTest, ListIsNewestFirst) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  for (uint64_t seq : {4u, 12u, 8u})
    ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", seq, "x").ok());
  auto ckpts = storage::ListCheckpoints(&fs, "d");
  ASSERT_TRUE(ckpts.ok());
  EXPECT_EQ(ckpts.value(), (std::vector<uint64_t>{12, 8, 4}));
}

TEST(CheckpointTest, TrimKeepsEveryReplayableSegment) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  for (uint64_t seq : {4u, 8u})
    ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", seq, "x").ok());
  // Segments starting at 1, 5, 9: checkpoint 4 needs batches from 5 on.
  for (uint64_t start : {1u, 5u, 9u}) {
    auto w = WalWriter::Open(&fs, "d", start, FsyncPolicy::kEveryCommit, 0);
    ASSERT_TRUE(w.ok());
  }

  // keep=2: checkpoint 4 is retained, so segment 1 alone is removable
  // (the next segment starts at 5 <= 4+1).
  EXPECT_EQ(storage::TrimStorageDir(&fs, "d", 2), 1u);
  EXPECT_FALSE(fs.FileExists("d/" + storage::WalSegmentName(1)));
  EXPECT_TRUE(fs.FileExists("d/" + storage::WalSegmentName(5)));
  EXPECT_TRUE(fs.FileExists("d/" + storage::CheckpointName(4)));

  // keep=1: checkpoint 4 goes, and with only checkpoint 8 retained
  // segment 5 is no longer needed (next segment starts at 9 <= 8+1).
  EXPECT_EQ(storage::TrimStorageDir(&fs, "d", 1), 2u);
  EXPECT_FALSE(fs.FileExists("d/" + storage::CheckpointName(4)));
  EXPECT_FALSE(fs.FileExists("d/" + storage::WalSegmentName(5)));
  EXPECT_TRUE(fs.FileExists("d/" + storage::CheckpointName(8)));
  EXPECT_TRUE(fs.FileExists("d/" + storage::WalSegmentName(9)));
}

// ---------------------------------------------------------------- recovery

TEST(RecoveryPlanTest, FreshDirIsAnEmptyPlan) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  auto plan = storage::PlanRecovery(&fs, "d");
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().found_checkpoint);
  EXPECT_TRUE(plan.value().batches.empty());
  EXPECT_EQ(plan.value().next_seq, 1u);
}

TEST(RecoveryPlanTest, FallsBackOneCheckpointAndQuarantines) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 2, "good old state").ok());
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 4, "newer state").ok());
  const std::string newest = "d/" + storage::CheckpointName(4);
  auto f = fs.OpenWritable(newest, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append("garbage", 7).ok());

  auto plan = storage::PlanRecovery(&fs, "d");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().found_checkpoint);
  EXPECT_EQ(plan.value().checkpoint_seq, 2u);
  EXPECT_EQ(plan.value().checkpoint_payload, "good old state");
  EXPECT_EQ(plan.value().corrupt_checkpoints, 1u);
  EXPECT_FALSE(fs.FileExists(newest));
  EXPECT_TRUE(fs.FileExists(newest + ".corrupt"));  // inspectable, unpickable
  EXPECT_EQ(plan.value().next_seq, 3u);
}

TEST(RecoveryPlanTest, RefusesToGuessWhenNoCheckpointValidates) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  for (uint64_t seq : {2u, 4u}) {
    ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", seq, "state").ok());
    auto f = fs.OpenWritable("d/" + storage::CheckpointName(seq), true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append("junk", 4).ok());
  }
  auto plan = storage::PlanRecovery(&fs, "d");
  EXPECT_EQ(plan.status().code(), StatusCode::kDataLoss);
}

TEST(RecoveryPlanTest, SeqGapDropsEverythingAfterIt) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  {
    auto w = WalWriter::Open(&fs, "d", 1, FsyncPolicy::kEveryCommit, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(1), 0).ok());
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(2), 0).ok());
  }
  {
    auto w = WalWriter::Open(&fs, "d", 5, FsyncPolicy::kEveryCommit, 0);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(5), 0).ok());
    ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(6), 0).ok());
  }
  auto plan = storage::PlanRecovery(&fs, "d");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().batches.size(), 2u);  // 1 and 2; never 5 and 6
  EXPECT_EQ(plan.value().batches.back().seq, 2u);
  EXPECT_EQ(plan.value().dropped_batches, 2u);
  EXPECT_EQ(plan.value().next_seq, 3u);
  ASSERT_FALSE(plan.value().notes.empty());
}

// A forward jump INSIDE one segment is the same gap as one between
// segments: the complete batches after it are kept on disk and counted as
// dropped, not truncated as a torn tail.
TEST(RecoveryPlanTest, SeqGapInsideASegmentDropsTheRest) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  {
    auto w = WalWriter::Open(&fs, "d", 1, FsyncPolicy::kEveryCommit, 0);
    ASSERT_TRUE(w.ok());
    for (uint64_t seq : {1, 2, 4, 5})
      ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(seq), 0).ok());
  }
  auto plan = storage::PlanRecovery(&fs, "d");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().batches.size(), 2u);  // 1 and 2; never 4 and 5
  EXPECT_EQ(plan.value().batches.back().seq, 2u);
  EXPECT_EQ(plan.value().dropped_batches, 2u);
  EXPECT_EQ(plan.value().truncated_bytes, 0u);
  EXPECT_EQ(plan.value().next_seq, 3u);
  bool gap_note = false;
  for (const std::string& note : plan.value().notes)
    gap_note = gap_note || note.find("seq gap") != std::string::npos;
  EXPECT_TRUE(gap_note);
}

// A duplicate (or backwards) seq inside a segment still ends the scan
// there: what follows it is tail, not a later batch.
TEST(RecoveryPlanTest, DuplicateSeqInsideASegmentStopsTheScan) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  {
    auto w = WalWriter::Open(&fs, "d", 1, FsyncPolicy::kEveryCommit, 0);
    ASSERT_TRUE(w.ok());
    for (uint64_t seq : {1, 2, 2, 3})
      ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(seq), 0).ok());
  }
  auto scan = storage::ReadWalSegment(&fs, "d/" + storage::WalSegmentName(1));
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().batches.size(), 2u);
  EXPECT_LT(scan.value().valid_size, scan.value().file_size);
  EXPECT_NE(scan.value().note.find("expected"), std::string::npos);
}

TEST(RecoveryPlanTest, WalBehindTheCheckpointIsDataLoss) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 3, "state").ok());
  // The only segment starts at 7: batches 4..6 are simply gone.
  auto w = WalWriter::Open(&fs, "d", 7, FsyncPolicy::kEveryCommit, 0);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(7), 0).ok());
  auto plan = storage::PlanRecovery(&fs, "d");
  EXPECT_EQ(plan.status().code(), StatusCode::kDataLoss);
}

TEST(RecoveryPlanTest, DumpReportsCheckpointsAndSegments) {
  MemFs fs;
  ASSERT_TRUE(fs.CreateDir("d").ok());
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 2, "state").ok());
  ASSERT_TRUE(storage::WriteCheckpoint(&fs, "d", 4, "newer").ok());
  auto f = fs.OpenWritable("d/" + storage::CheckpointName(4), true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append("junk", 4).ok());
  auto w = WalWriter::Open(&fs, "d", 3, FsyncPolicy::kEveryCommit, 0);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(w.value()->AppendBatch(MakeBatch(3), 0).ok());

  auto dump = storage::DumpStorageDir(&fs, "d");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_NE(dump.value().find("checkpoint seq=2 ok"), std::string::npos)
      << dump.value();
  EXPECT_NE(dump.value().find("checkpoint seq=4 INVALID"), std::string::npos);
  EXPECT_NE(dump.value().find("segment start=3 batches=1 (3..3)"),
            std::string::npos)
      << dump.value();
}

// ---------------------------------------------------------------- fault fs

TEST(FaultFsTest, FailStopBlocksEveryMutation) {
  MemFs mem;
  FaultFs fs(&mem);
  FaultPlan plan;
  plan.fail_after_op = 0;
  fs.set_plan(plan);
  EXPECT_FALSE(fs.CreateDir("d").ok());
  EXPECT_FALSE(fs.OpenWritable("f", true).ok());
  EXPECT_FALSE(fs.Rename("a", "b").ok());
  EXPECT_FALSE(fs.RemoveFile("a").ok());
  EXPECT_FALSE(fs.Truncate("a", 0).ok());
  EXPECT_FALSE(fs.SyncDir("d").ok());
  EXPECT_EQ(fs.ops(), 6u);  // failed attempts are counted too
  // Reads pass through untouched.
  EXPECT_FALSE(fs.FileExists("a"));
}

// ---------------------------------------------------- service integration

// A small cleaned social-domain bundle, deterministic per seed.
DatasetBundle SmallBundle(uint64_t seed = 3) {
  SocialOptions gopt;
  gopt.num_persons = 60;
  gopt.seed = seed;
  InjectOptions iopt;
  iopt.rate = 0.05;
  iopt.seed = seed + 5;
  Result<DatasetBundle> b = MakeSocialBundle(gopt, iopt);
  EXPECT_TRUE(b.ok());
  DatasetBundle bundle = std::move(b).value();
  auto res = RepairEngine().Run(&bundle.graph, bundle.rules);
  EXPECT_TRUE(res.ok());
  return bundle;
}

ServeOptions DurableOpts(Fs* fs, uint64_t checkpoint_every = 2) {
  ServeOptions o;
  o.wal_dir = "wal";
  o.wal_fs = fs;
  o.checkpoint_every = checkpoint_every;
  return o;
}

// Applies n random edits THROUGH the service (journaled, WAL-logged),
// sampling ids and labels from the live graph. Rejected ops (dead ids,
// read-only degradation) are silently skipped — exactly what a driving
// client experiences.
void MutateService(RepairService* svc, Rng* rng, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    const Graph& g = svc->graph();
    std::vector<NodeId> nodes = g.Nodes();
    std::vector<EdgeId> edges = g.Edges();
    if (nodes.size() < 2) return;
    EditEntry op;
    switch (rng->NextBounded(5)) {
      case 0: {
        op.kind = EditKind::kAddEdge;
        op.src = nodes[rng->PickIndex(nodes)];
        op.dst = nodes[rng->PickIndex(nodes)];
        if (op.src == op.dst || edges.empty()) continue;
        op.label = g.EdgeLabel(edges[rng->PickIndex(edges)]);
        break;
      }
      case 1: {
        if (edges.empty()) continue;
        op.kind = EditKind::kRemoveEdge;
        op.edge = edges[rng->PickIndex(edges)];
        break;
      }
      case 2: {
        op.kind = EditKind::kSetNodeLabel;
        op.node = nodes[rng->PickIndex(nodes)];
        op.new_sym = g.NodeLabel(nodes[rng->PickIndex(nodes)]);
        break;
      }
      case 3: {
        op.kind = EditKind::kAddNode;
        op.label = g.NodeLabel(nodes[rng->PickIndex(nodes)]);
        break;
      }
      default: {
        if (edges.empty()) continue;
        op.kind = EditKind::kSetEdgeLabel;
        op.edge = edges[rng->PickIndex(edges)];
        op.new_sym = g.EdgeLabel(edges[rng->PickIndex(edges)]);
        break;
      }
    }
    (void)svc->ApplyEdit(op);
  }
}

// Loads the state file at `path` into a fresh non-durable service and
// re-saves it. LoadServiceState compacts element ids exactly the way the
// checkpoint/recovery swaps do, so two states that differ only by the
// order-preserving renumbering those swaps perform (DESIGN.md
// "Durability") normalize to identical bytes — and any dropped, mangled,
// or extra edit still shows as a byte difference.
std::string Normalized(const DatasetBundle& bundle, const Graph& master,
                       Fs* fs, const std::string& path) {
  ServeOptions o;
  o.wal_fs = fs;
  RepairService svc(master.Clone(), bundle.rules, o);
  EXPECT_TRUE(svc.RestoreState(path).ok()) << path;
  EXPECT_TRUE(svc.SaveState(path + ".norm").ok()) << path;
  auto bytes = fs->ReadFile(path + ".norm");
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? bytes.value() : "";
}

// One edit that interns a brand-new value symbol, so 'S' frames ride the
// WAL and replay exercises the vocabulary-fidelity path.
void TouchFreshSymbol(RepairService* svc, const VocabularyPtr& vocab,
                      int batch) {
  std::vector<NodeId> nodes = svc->graph().Nodes();
  if (nodes.empty()) return;
  EditEntry op;
  op.kind = EditKind::kSetNodeAttr;
  op.node = nodes.front();
  op.attr = vocab->Attr("note");
  op.new_sym = vocab->Value(StrFormat("fresh-%d", batch));
  (void)svc->ApplyEdit(op);
}

// The deterministic durable workload: open durability, then kBatches
// commits of random edits plus one fresh symbol each. Failures (the
// injected crash and the read-only degradation after it) are absorbed —
// the state the service ACKED is what recovery is measured against.
constexpr int kWorkloadBatches = 6;

void RunWorkload(RepairService* svc, const VocabularyPtr& vocab,
                 uint64_t seed) {
  auto open = svc->OpenDurability();
  if (!open.ok()) return;  // crashed during startup: nothing was acked
  Rng rng(seed);
  for (int b = 0; b < kWorkloadBatches; ++b) {
    MutateService(svc, &rng, 5);
    TouchFreshSymbol(svc, vocab, b);
    (void)svc->Commit();
  }
}

TEST(DurableServiceTest, FreshDirGetsABaselineCheckpoint) {
  DatasetBundle bundle = SmallBundle();
  MemFs fs;
  RepairService svc(bundle.graph.Clone(), bundle.rules, DurableOpts(&fs));
  auto info = svc.OpenDurability();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info.value().durable);
  EXPECT_FALSE(info.value().recovered_from_checkpoint);
  EXPECT_TRUE(svc.durable());
  EXPECT_FALSE(svc.read_only());
  // The baseline at seq 0 re-anchors history: restarts never need --graph.
  auto ckpts = storage::ListCheckpoints(&fs, "wal");
  ASSERT_TRUE(ckpts.ok());
  ASSERT_EQ(ckpts.value().size(), 1u);
  EXPECT_EQ(ckpts.value()[0], 0u);
  EXPECT_EQ(svc.stats().checkpoints, 1u);
}

TEST(DurableServiceTest, RestartRecoversAckedCommitsBitIdentically) {
  DatasetBundle bundle = SmallBundle();
  Graph master = bundle.graph.Clone();
  MemFs fs;
  {
    RepairService svc(master.Clone(), bundle.rules, DurableOpts(&fs));
    RunWorkload(&svc, bundle.vocab, 17);
    ASSERT_FALSE(svc.read_only());
    EXPECT_GT(svc.stats().wal_appends, 0u);
    EXPECT_GT(svc.stats().checkpoints, 1u);  // baseline + cadence
    ASSERT_TRUE(svc.SaveState("/want").ok());
  }  // process "exits"; only the MemFs survives

  RepairService restarted(master.Clone(), bundle.rules, DurableOpts(&fs));
  auto info = restarted.OpenDurability();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info.value().recovered_from_checkpoint);
  EXPECT_EQ(info.value().checkpoint_seq + info.value().replayed_batches,
            static_cast<uint64_t>(kWorkloadBatches));
  EXPECT_EQ(restarted.stats().batches, static_cast<size_t>(kWorkloadBatches));

  ASSERT_TRUE(restarted.SaveState("/got").ok());
  EXPECT_EQ(fs.ReadFile("/want").value(), fs.ReadFile("/got").value());

  // Serving continues where the crashed process stopped: the next commit
  // gets the next sequence number and is WAL-logged like any other.
  Rng rng(99);
  MutateService(&restarted, &rng, 3);
  auto next = restarted.Commit();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value().batch, static_cast<size_t>(kWorkloadBatches) + 1);
}

TEST(DurableServiceTest, IntervalPolicyRecoversTheSyncedPrefix) {
  DatasetBundle bundle = SmallBundle();
  Graph master = bundle.graph.Clone();
  MemFs fs;
  uint64_t now = 0;
  ServeOptions opts = DurableOpts(&fs, /*checkpoint_every=*/0);
  opts.fsync_policy = FsyncPolicy::kInterval;
  opts.fsync_interval_ms = 100;
  opts.clock_ms = [&now] { return now; };

  std::string want_after_2;
  {
    RepairService svc(master.Clone(), bundle.rules, opts);
    ASSERT_TRUE(svc.OpenDurability().ok());
    Rng rng(5);
    const uint64_t clock[] = {0, 150, 160};
    for (int b = 0; b < 3; ++b) {
      now = clock[b];
      MutateService(&svc, &rng, 4);
      ASSERT_TRUE(svc.Commit().ok());
      if (b == 1) {
        // SaveState is itself synced (atomic rename), so the oracle for
        // the synced prefix survives the crash below.
        ASSERT_TRUE(svc.SaveState("/want2").ok());
      }
    }
  }
  fs.DropUnsynced();  // batch 3 was acked but never reached the device

  RepairService restarted(master.Clone(), bundle.rules, opts);
  auto info = restarted.OpenDurability();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // Batches 1-2 were fsynced at t=150; batch 3 is the documented loss
  // window of the relaxed policy. Recovery lands on that exact prefix.
  EXPECT_EQ(info.value().replayed_batches, 2u);
  ASSERT_TRUE(restarted.SaveState("/got2").ok());
  EXPECT_EQ(Normalized(bundle, master, &fs, "/want2"),
            Normalized(bundle, master, &fs, "/got2"));
}

TEST(DurableServiceTest, AppendFailureRollsBackAndDegradesReadOnly) {
  DatasetBundle bundle = SmallBundle();
  MemFs mem;
  FaultFs fs(&mem);
  RepairService svc(bundle.graph.Clone(), bundle.rules, DurableOpts(&fs));
  ASSERT_TRUE(svc.OpenDurability().ok());
  Rng rng(7);
  MutateService(&svc, &rng, 4);
  ASSERT_TRUE(svc.Commit().ok());
  const uint64_t fingerprint = svc.graph().Fingerprint();

  FaultPlan plan;
  plan.fail_after_op = fs.ops();  // the next file op — batch 2's append
  fs.set_plan(plan);
  MutateService(&svc, &rng, 4);
  ASSERT_GT(svc.PendingEdits(), 0u);
  auto committed = svc.Commit();
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kIo);

  // The batch was rejected WHOLE: staged edits rolled back, graph as after
  // batch 1, and the service refuses mutations until a restart recovers.
  EXPECT_TRUE(svc.read_only());
  EXPECT_EQ(svc.PendingEdits(), 0u);
  EXPECT_EQ(svc.graph().Fingerprint(), fingerprint);
  EXPECT_EQ(svc.stats().wal_append_errors, 1u);
  EXPECT_TRUE(svc.stats().read_only);
  EditEntry op;
  op.kind = EditKind::kAddNode;
  op.label = svc.graph().NodeLabel(svc.graph().Nodes().front());
  EXPECT_EQ(svc.ApplyEdit(op).status().code(), StatusCode::kIo);

  // The protocol surfaces the degradation as a structured `err io` line.
  serve::Session session(&svc, serve::SessionMode::kImmediate);
  EXPECT_EQ(session.HandleLine("add_node Person").rfind("err io ", 0), 0u);

  // A restart against the same directory recovers the acked prefix.
  fs.set_plan(FaultPlan{});
  RepairService restarted(bundle.graph.Clone(), bundle.rules,
                          DurableOpts(&fs));
  ASSERT_TRUE(restarted.OpenDurability().ok());
  EXPECT_FALSE(restarted.read_only());
  EXPECT_EQ(restarted.stats().batches, 1u);
}

TEST(DurableServiceTest, CorruptRestoreFileIsErrCorrupt) {
  DatasetBundle bundle = SmallBundle();
  MemFs fs;
  ServeOptions opts;
  opts.wal_fs = &fs;  // no wal_dir: just the Fs seam for save/restore
  RepairService svc(bundle.graph.Clone(), bundle.rules, opts);
  auto f = fs.OpenWritable("/junk", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append("not a state file\n", 17).ok());
  serve::Session session(&svc, serve::SessionMode::kImmediate);
  EXPECT_EQ(session.HandleLine("restore /junk").rfind("err corrupt ", 0), 0u);
  // Save to an unwritable path still maps to a structured io error.
  FaultFs faulty(&fs);
  // (separate service so the sealed one above stays untouched)
  ServeOptions fopts;
  fopts.wal_fs = &faulty;
  RepairService svc2(bundle.graph.Clone(), bundle.rules, fopts);
  FaultPlan plan;
  plan.fail_after_op = 0;
  faulty.set_plan(plan);
  serve::Session session2(&svc2, serve::SessionMode::kImmediate);
  EXPECT_EQ(session2.HandleLine("snapshot /out").rfind("err io ", 0), 0u);
}

TEST(DurableServiceTest, MismatchedConfigurationIsRefused) {
  // A directory written under one --graph/--rules cannot be opened under
  // another: the checkpoint's vocabulary dump re-interns to different ids
  // and recovery refuses rather than replaying against drifted symbols.
  DatasetBundle social = SmallBundle();
  MemFs fs;
  {
    RepairService svc(social.graph.Clone(), social.rules, DurableOpts(&fs));
    ASSERT_TRUE(svc.OpenDurability().ok());
    Rng rng(11);
    MutateService(&svc, &rng, 4);
    ASSERT_TRUE(svc.Commit().ok());
  }
  CitationOptions gopt;
  gopt.num_papers = 40;
  gopt.num_authors = 15;
  gopt.seed = 3;
  InjectOptions iopt;
  iopt.rate = 0.05;
  iopt.seed = 8;
  auto citation = MakeCitationBundle(gopt, iopt);
  ASSERT_TRUE(citation.ok());
  RepairService other(std::move(citation.value().graph),
                      citation.value().rules, DurableOpts(&fs));
  EXPECT_FALSE(other.OpenDurability().ok());
}

// ------------------------------------------------------ crash-point sweep

// The randomized crash-point property test: fail-stop the workload at
// every mutating file operation in turn; recovery must reproduce the
// crashed process's state byte-for-byte. SaveState's serialization is the
// oracle — it rewrites ids densely, so it is a fixed point under the
// checkpoint swaps and compares states the way recovery produces them.
TEST(CrashPointSweepTest, EveryCrashPointRecoversTheAckedPrefix) {
  DatasetBundle bundle = SmallBundle();
  Graph master = bundle.graph.Clone();
  constexpr uint64_t kSeed = 77;

  // Fault-free dry run: learn the op count, and pin the oracle itself —
  // recovery of a clean directory must reproduce the final state exactly.
  uint64_t total_ops = 0;
  {
    MemFs mem;
    FaultFs fs(&mem);
    RepairService svc(master.Clone(), bundle.rules, DurableOpts(&fs));
    RunWorkload(&svc, bundle.vocab, kSeed);
    ASSERT_FALSE(svc.read_only());
    total_ops = fs.ops();
    ASSERT_TRUE(svc.SaveState("/want").ok());
    RepairService rec(master.Clone(), bundle.rules, DurableOpts(&fs));
    ASSERT_TRUE(rec.OpenDurability().ok());
    ASSERT_TRUE(rec.SaveState("/got").ok());
    ASSERT_EQ(Normalized(bundle, master, &mem, "/want"),
              Normalized(bundle, master, &mem, "/got"));
  }
  ASSERT_GT(total_ops, 20u) << "workload too small to sweep";

  for (uint64_t crash = 0; crash < total_ops; ++crash) {
    MemFs mem;
    FaultFs fs(&mem);
    FaultPlan plan;
    plan.fail_after_op = crash;  // fail-stop: ops >= crash all fail
    fs.set_plan(plan);
    RepairService crashed(master.Clone(), bundle.rules, DurableOpts(&fs));
    RunWorkload(&crashed, bundle.vocab, kSeed);
    mem.DropUnsynced();  // the pessimistic power cut
    fs.set_plan(FaultPlan{});  // the machine comes back healthy

    // What the crashed process had acked is exactly its live state: failed
    // batches were rolled back before the error surfaced.
    ASSERT_TRUE(crashed.SaveState("/want").ok()) << "crash point " << crash;

    RepairService recovered(master.Clone(), bundle.rules, DurableOpts(&fs));
    auto info = recovered.OpenDurability();
    ASSERT_TRUE(info.ok())
        << "crash point " << crash << ": " << info.status().ToString();
    ASSERT_TRUE(recovered.SaveState("/got").ok());
    ASSERT_EQ(Normalized(bundle, master, &mem, "/want"),
              Normalized(bundle, master, &mem, "/got"))
        << "recovery diverged from the acked prefix at crash point " << crash;
    EXPECT_FALSE(recovered.read_only());
  }
}

// -------------------------------------------------------------- wal dump

TEST(WalDumpCliTest, PrintsRecoverableStateOfARealDirectory) {
  DatasetBundle bundle = SmallBundle();
  storage::Fs* fs = storage::RealFs::Default();
  const std::string dir = "wal_dump_cli_test.dir";
  {
    ServeOptions opts;
    opts.wal_dir = dir;
    opts.checkpoint_every = 2;
    RepairService svc(bundle.graph.Clone(), bundle.rules, opts);
    ASSERT_TRUE(svc.OpenDurability().ok());
    Rng rng(13);
    for (int b = 0; b < 3; ++b) {
      MutateService(&svc, &rng, 4);
      ASSERT_TRUE(svc.Commit().ok());
    }
  }
  std::string out;
  EXPECT_EQ(RunCli({"wal", "dump", dir}, &out), 0) << out;
  EXPECT_NE(out.find("storage dir " + dir), std::string::npos) << out;
  EXPECT_NE(out.find("checkpoint seq="), std::string::npos) << out;
  EXPECT_NE(out.find("segment start="), std::string::npos) << out;

  out.clear();
  EXPECT_NE(RunCli({"wal", "dump"}, &out), 0);  // usage error, not a crash

  std::vector<std::string> names = fs->ListDir(dir).value();
  for (const std::string& name : names)
    ASSERT_TRUE(fs->RemoveFile(dir + "/" + name).ok());
  std::remove(dir.c_str());
}

}  // namespace
}  // namespace grepair
