#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/failpoint.h"
#include "engine/partition.h"
#include "engine/procedure.h"
#include "log/command_log.h"
#include "log/snapshot.h"
#include "query/expr.h"

namespace sstore {
namespace {

Schema KvSchema() {
  return Schema({{"k", ValueType::kBigInt}, {"v", ValueType::kBigInt}});
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Every record of a log that must end cleanly (no torn tail).
std::vector<LogRecord> ReadWholeLog(const std::string& path) {
  Result<CommandLog::TolerantRead> read = CommandLog::ReadTolerant(path);
  EXPECT_TRUE(read.ok()) << read.status().ToString();
  if (!read.ok()) return {};
  EXPECT_FALSE(read->torn_tail) << path;
  return std::move(read->records);
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(part_.catalog().CreateTable("kv", KvSchema()).ok());
    Table* kv = *part_.catalog().GetTable("kv");
    ASSERT_TRUE(kv->CreateIndex("pk", {"k"}, true).ok());

    // put(k, v): upsert-free insert (unique pk; duplicate aborts).
    ASSERT_TRUE(part_
                    .RegisterProcedure(
                        "put", SpKind::kOltp,
                        std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
                          SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("kv"));
                          SSTORE_ASSIGN_OR_RETURN(
                              RowId rid,
                              ctx.exec().Insert(t, ctx.params()));
                          (void)rid;
                          return Status::OK();
                        }))
                    .ok());
    // get(k): returns matching rows.
    ASSERT_TRUE(part_
                    .RegisterProcedure(
                        "get", SpKind::kOltp,
                        std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
                          SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("kv"));
                          SSTORE_ASSIGN_OR_RETURN(
                              std::vector<Tuple> rows,
                              ctx.exec().IndexScan(t, "pk",
                                                   {ctx.params()[0]}));
                          for (Tuple& r : rows) ctx.EmitOutput(std::move(r));
                          return Status::OK();
                        }))
                    .ok());
    // fail_after_write: writes then aborts — tests rollback.
    ASSERT_TRUE(part_
                    .RegisterProcedure(
                        "fail_after_write", SpKind::kOltp,
                        std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
                          SSTORE_ASSIGN_OR_RETURN(Table * t, ctx.table("kv"));
                          SSTORE_ASSIGN_OR_RETURN(
                              RowId rid,
                              ctx.exec().Insert(t, ctx.params()));
                          (void)rid;
                          return Status::Aborted("intentional");
                        }))
                    .ok());
  }

  Partition part_;
};

TEST_F(EngineTest, InlineCommit) {
  TxnOutcome out = part_.ExecuteSync("put", {Value::BigInt(1), Value::BigInt(10)});
  EXPECT_TRUE(out.committed());
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 1u);
  EXPECT_EQ(part_.stats().committed, 1u);
}

TEST_F(EngineTest, UnknownProcedureIsNotFound) {
  EXPECT_TRUE(part_.ExecuteSync("nope", {}).status.IsNotFound());
}

TEST_F(EngineTest, AbortRollsBackAllWrites) {
  TxnOutcome out =
      part_.ExecuteSync("fail_after_write", {Value::BigInt(1), Value::BigInt(1)});
  EXPECT_TRUE(out.status.IsAborted());
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 0u);
  EXPECT_EQ(part_.stats().aborted, 1u);
}

TEST_F(EngineTest, ConstraintViolationAborts) {
  ASSERT_TRUE(part_.ExecuteSync("put", {Value::BigInt(1), Value::BigInt(1)})
                  .committed());
  TxnOutcome dup =
      part_.ExecuteSync("put", {Value::BigInt(1), Value::BigInt(2)});
  EXPECT_TRUE(dup.status.IsConstraintViolation());
  // First row intact, second rolled back.
  TxnOutcome get = part_.ExecuteSync("get", {Value::BigInt(1)});
  ASSERT_EQ(get.output.size(), 1u);
  EXPECT_EQ(get.output[0][1], Value::BigInt(1));
}

TEST_F(EngineTest, OutputRowsReturned) {
  ASSERT_TRUE(part_.ExecuteSync("put", {Value::BigInt(3), Value::BigInt(33)})
                  .committed());
  TxnOutcome out = part_.ExecuteSync("get", {Value::BigInt(3)});
  ASSERT_EQ(out.output.size(), 1u);
  EXPECT_EQ(out.output[0][1], Value::BigInt(33));
}

TEST_F(EngineTest, WorkerThreadExecutesSubmissions) {
  part_.Start();
  std::vector<BatchTicketPtr> tickets;
  for (int i = 0; i < 100; ++i) {
    tickets.push_back(part_.SubmitAsync(
        Invocation{"put", {Value::BigInt(i), Value::BigInt(i)}, 0}));
  }
  for (auto& t : tickets) EXPECT_TRUE(t->Wait()[0].committed());
  part_.Stop();
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 100u);
}

TEST_F(EngineTest, ExecuteSyncFromClientThread) {
  part_.Start();
  std::atomic<int> ok{0};
  std::thread client([&] {
    for (int i = 0; i < 50; ++i) {
      if (part_.ExecuteSync("put", {Value::BigInt(i), Value::BigInt(i)})
              .committed()) {
        ++ok;
      }
    }
  });
  client.join();
  part_.Stop();
  EXPECT_EQ(ok.load(), 50);
}

TEST_F(EngineTest, EnqueueFrontRunsBeforeBackloggedWork) {
  // Deterministic single-threaded check of the streaming scheduler's
  // fast-track: a front enqueue from inside a commit hook runs before
  // already-queued client work.
  std::vector<std::string> order;
  ASSERT_TRUE(part_
                  .RegisterProcedure(
                      "recorder", SpKind::kOltp,
                      std::make_shared<LambdaProcedure>([&](ProcContext& ctx) {
                        order.push_back("recorder:" +
                                        ctx.params()[0].ToString());
                        return Status::OK();
                      }))
                  .ok());
  bool triggered = false;
  part_.AddCommitHook([&](Partition& p, const TransactionExecution& te) {
    if (te.proc_name() == "put" && !triggered) {
      triggered = true;
      p.EnqueueFront(Invocation{"recorder", {Value::String("front")}, 0});
    }
  });
  // Queue: put, recorder(back). The hook on put pushes recorder(front).
  part_.SubmitAsync(Invocation{"put", {Value::BigInt(1), Value::BigInt(1)}, 0});
  part_.SubmitAsync(Invocation{"recorder", {Value::String("back")}, 0});
  part_.DrainQueueInline();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "recorder:'front'");
  EXPECT_EQ(order[1], "recorder:'back'");
}

TEST_F(EngineTest, NestedTransactionCommitsAtomically) {
  std::vector<Invocation> children = {
      {"put", {Value::BigInt(1), Value::BigInt(1)}, 0},
      {"put", {Value::BigInt(2), Value::BigInt(2)}, 0}};
  TxnOutcome out = part_.ExecuteNestedSync(children);
  EXPECT_TRUE(out.committed());
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 2u);
  EXPECT_EQ(part_.stats().nested_groups, 1u);
}

TEST_F(EngineTest, NestedTransactionAbortsAsUnit) {
  // Child 2 violates the unique key; child 1's committed write must unwind.
  std::vector<Invocation> children = {
      {"put", {Value::BigInt(7), Value::BigInt(1)}, 0},
      {"put", {Value::BigInt(7), Value::BigInt(2)}, 0},
      {"put", {Value::BigInt(8), Value::BigInt(3)}, 0}};
  TxnOutcome out = part_.ExecuteNestedSync(children);
  EXPECT_FALSE(out.committed());
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 0u);
}

TEST_F(EngineTest, NestedTransactionUnknownChildAborts) {
  std::vector<Invocation> children = {
      {"put", {Value::BigInt(1), Value::BigInt(1)}, 0}, {"nope", {}, 0}};
  TxnOutcome out = part_.ExecuteNestedSync(children);
  EXPECT_TRUE(out.status.IsNotFound());
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 0u);
}

TEST_F(EngineTest, CommitHooksSeeEmittedStreams) {
  ASSERT_TRUE(part_.catalog()
                  .CreateTable("s1", KvSchema(), TableKind::kStream)
                  .ok());
  ASSERT_TRUE(part_
                  .RegisterProcedure(
                      "emitter", SpKind::kBorder,
                      std::make_shared<LambdaProcedure>([](ProcContext& ctx) {
                        return ctx.EmitToStream("s1", {ctx.params()});
                      }))
                  .ok());
  std::vector<std::pair<std::string, int64_t>> seen;
  part_.AddCommitHook([&](Partition&, const TransactionExecution& te) {
    for (const auto& e : te.emitted()) seen.push_back(e);
  });
  ASSERT_TRUE(part_.ExecuteSync("emitter", {Value::BigInt(1), Value::BigInt(1)},
                                /*batch_id=*/42)
                  .committed());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, "s1");
  EXPECT_EQ(seen[0].second, 42);
}

TEST_F(EngineTest, CommitHooksDoNotFireOnAbort) {
  int fired = 0;
  part_.AddCommitHook(
      [&](Partition&, const TransactionExecution&) { ++fired; });
  part_.ExecuteSync("fail_after_write", {Value::BigInt(1), Value::BigInt(1)});
  EXPECT_EQ(fired, 0);
}

class FragmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(part_.catalog().CreateTable("t", KvSchema()).ok());
    ASSERT_TRUE(part_.ee()
                    .RegisterFragment(
                        "insert_t",
                        [](ExecutionEngine& ee, Executor& exec,
                           const Tuple& params) -> Result<std::vector<Tuple>> {
                          SSTORE_ASSIGN_OR_RETURN(
                              Table * t, ee.catalog()->GetTable("t"));
                          SSTORE_ASSIGN_OR_RETURN(RowId rid,
                                                  exec.Insert(t, params));
                          (void)rid;
                          return std::vector<Tuple>{};
                        })
                    .ok());
    ASSERT_TRUE(part_.ee()
                    .RegisterFragment(
                        "scan_t",
                        [](ExecutionEngine& ee, Executor& exec,
                           const Tuple&) -> Result<std::vector<Tuple>> {
                          SSTORE_ASSIGN_OR_RETURN(
                              Table * t, ee.catalog()->GetTable("t"));
                          ScanSpec spec;
                          spec.table = t;
                          return exec.Scan(spec);
                        })
                    .ok());
  }

  Partition part_;
};

TEST_F(FragmentTest, DuplicateFragmentRejected) {
  EXPECT_EQ(part_.ee()
                .RegisterFragment("insert_t",
                                  [](ExecutionEngine&, Executor&,
                                     const Tuple&) -> Result<std::vector<Tuple>> {
                                    return std::vector<Tuple>{};
                                  })
                .code(),
            StatusCode::kAlreadyExists);
}

TEST_F(FragmentTest, InvokeFromPECountsBoundaryCrossings) {
  ASSERT_TRUE(part_.ee()
                  .InvokeFromPE("insert_t",
                                {Value::BigInt(1), Value::BigInt(2)}, nullptr)
                  .ok());
  Result<std::vector<Tuple>> rows = part_.ee().InvokeFromPE("scan_t", {}, nullptr);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_EQ(part_.ee().stats().boundary_crossings, 2u);
  EXPECT_GT(part_.ee().stats().boundary_bytes, 0u);
}

TEST_F(FragmentTest, InvokeInEngineSkipsBoundary) {
  ASSERT_TRUE(part_.ee()
                  .InvokeInEngine("insert_t",
                                  {Value::BigInt(1), Value::BigInt(2)}, nullptr)
                  .ok());
  EXPECT_EQ(part_.ee().stats().boundary_crossings, 0u);
  EXPECT_EQ(part_.ee().stats().fragments_executed, 1u);
}

TEST_F(FragmentTest, MissingFragmentIsNotFound) {
  EXPECT_TRUE(part_.ee().InvokeFromPE("nope", {}, nullptr).status().IsNotFound());
}

TEST_F(FragmentTest, EeTriggerCascadeAndAutoGc) {
  // s1 --trigger--> copy to s2; s2 --trigger--> copy to t (base table).
  Catalog& cat = part_.catalog();
  ASSERT_TRUE(cat.CreateTable("s1", KvSchema(), TableKind::kStream).ok());
  ASSERT_TRUE(cat.CreateTable("s2", KvSchema(), TableKind::kStream).ok());
  auto copy_frag = [](const std::string& from, const std::string& to) {
    return [from, to](ExecutionEngine& ee, Executor& exec,
                      const Tuple& params) -> Result<std::vector<Tuple>> {
      SSTORE_ASSIGN_OR_RETURN(Table * src, ee.catalog()->GetTable(from));
      int64_t batch = params[0].as_int64();
      std::vector<Tuple> rows;
      src->ForEach([&](RowId, const Tuple& row, const RowMeta& meta) {
        if (meta.batch_id == batch) rows.push_back(row);
        return true;
      });
      SSTORE_RETURN_NOT_OK(
          ee.InsertBatch(to, std::move(rows), batch, exec.mutation_log()));
      return std::vector<Tuple>{};
    };
  };
  ASSERT_TRUE(part_.ee().RegisterFragment("s1_to_s2", copy_frag("s1", "s2")).ok());
  ASSERT_TRUE(part_.ee().RegisterFragment("s2_to_t", copy_frag("s2", "t")).ok());
  ASSERT_TRUE(part_.ee().AttachInsertTrigger("s1", "s1_to_s2").ok());
  ASSERT_TRUE(part_.ee().AttachInsertTrigger("s2", "s2_to_t").ok());

  ASSERT_TRUE(part_.ee()
                  .InsertBatch("s1", {{Value::BigInt(1), Value::BigInt(10)}},
                               /*batch_id=*/5, nullptr)
                  .ok());
  // The tuple cascaded to t entirely inside the EE...
  EXPECT_EQ((*cat.GetTable("t"))->row_count(), 1u);
  // ...with zero PE->EE crossings and automatic GC of the stream batches.
  EXPECT_EQ(part_.ee().stats().boundary_crossings, 0u);
  EXPECT_EQ((*cat.GetTable("s1"))->row_count(), 0u);
  EXPECT_EQ((*cat.GetTable("s2"))->row_count(), 0u);
  EXPECT_EQ(part_.ee().stats().ee_trigger_firings, 2u);
  EXPECT_EQ(part_.ee().stats().gc_deleted_rows, 2u);
}

TEST(CommandLogTest, AppendFlushReadRoundTrip) {
  std::string path = TempPath("cmd_roundtrip.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.sync = false;
  auto log = std::move(CommandLog::Open(opts)).value();
  LogRecord r1{1, "proc_a", {Value::BigInt(5)}, 10, 1};
  LogRecord r2{2, "proc_b", {Value::String("x"), Value::Null()}, 11, 2};
  ASSERT_TRUE(log->Append(r1).ok());
  ASSERT_TRUE(log->Append(r2).ok());
  ASSERT_TRUE(log->Close().ok());

  std::vector<LogRecord> records = ReadWholeLog(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], r1);
  EXPECT_EQ(records[1], r2);
}

TEST(CommandLogTest, GroupCommitBatchesFlushes) {
  std::string path = TempPath("cmd_group.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.group_size = 4;
  opts.sync = false;
  auto log = std::move(CommandLog::Open(opts)).value();
  for (int i = 0; i < 10; ++i) {
    uint64_t before = log->flush_count();
    ASSERT_TRUE(log->Append(LogRecord{i, "p", {}, 0, 0}).ok());
    // The append that fills a group of 4 flushes it; the others buffer.
    EXPECT_EQ(log->flush_count() - before, (i + 1) % 4 == 0 ? 1u : 0u) << i;
  }
  EXPECT_EQ(log->flush_count(), 2u);
  EXPECT_EQ(log->pending(), 2u);
  ASSERT_TRUE(log->Close().ok());  // flushes the tail
  EXPECT_EQ(ReadWholeLog(path).size(), 10u);
}

TEST(CommandLogTest, GroupSizeOneFlushesEveryAppend) {
  std::string path = TempPath("cmd_nogroup.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.group_size = 1;
  opts.sync = false;
  auto log = std::move(CommandLog::Open(opts)).value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log->Append(LogRecord{i, "p", {}, 0, 0}).ok());
  }
  EXPECT_EQ(log->flush_count(), 5u);
}

TEST(CommandLogTest, CorruptFileDetected) {
  std::string path = TempPath("cmd_corrupt.log");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const char junk[] = "not a log";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  Result<CommandLog::TolerantRead> read = CommandLog::ReadTolerant(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->torn_tail);
  EXPECT_TRUE(read->records.empty());
}

TEST(CommandLogTest, BadOptionsRejected) {
  CommandLog::Options opts;
  EXPECT_FALSE(CommandLog::Open(opts).ok());  // empty path
  opts.path = TempPath("x.log");
  opts.group_size = 0;
  EXPECT_FALSE(CommandLog::Open(opts).ok());
}

TEST(SnapshotTest, WriteRestoreRoundTrip) {
  Catalog cat;
  Table* t = *cat.CreateTable("t", KvSchema());
  ASSERT_TRUE(t->CreateIndex("pk", {"k"}, true).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t->Insert({Value::BigInt(i), Value::BigInt(i * i)}).ok());
  }
  std::string path = TempPath("snap1.bin");
  ASSERT_TRUE(SnapshotManager::WriteSnapshot(path, cat).ok());

  Catalog fresh;
  Table* t2 = *fresh.CreateTable("t", KvSchema());
  ASSERT_TRUE(t2->CreateIndex("pk", {"k"}, true).ok());
  ASSERT_TRUE(SnapshotManager::RestoreSnapshot(path, &fresh).ok());
  EXPECT_EQ(t2->row_count(), 20u);
  // Indexes rebuilt during restore.
  EXPECT_EQ((*t2->IndexLookup("pk", {Value::BigInt(7)})).size(), 1u);
}

TEST(SnapshotTest, RestoreClearsTablesAbsentFromSnapshot) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", KvSchema()).ok());
  std::string path = TempPath("snap2.bin");
  ASSERT_TRUE(SnapshotManager::WriteSnapshot(path, cat).ok());

  Catalog fresh;
  Table* t = *fresh.CreateTable("t", KvSchema());
  ASSERT_TRUE(t->Insert({Value::BigInt(1), Value::BigInt(1)}).ok());
  Table* extra = *fresh.CreateTable("extra", KvSchema());
  ASSERT_TRUE(extra->Insert({Value::BigInt(1), Value::BigInt(1)}).ok());
  ASSERT_TRUE(SnapshotManager::RestoreSnapshot(path, &fresh).ok());
  EXPECT_EQ(t->row_count(), 0u);
  EXPECT_EQ(extra->row_count(), 0u);
}

TEST(SnapshotTest, MissingTableInTargetFails) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("t", KvSchema()).ok());
  std::string path = TempPath("snap3.bin");
  ASSERT_TRUE(SnapshotManager::WriteSnapshot(path, cat).ok());
  Catalog fresh;  // no 't'
  EXPECT_TRUE(SnapshotManager::RestoreSnapshot(path, &fresh).IsNotFound());
}

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(SnapshotTest, RejectsTheRetiredV1Format) {
  // Neither retired layout is written any more, so the reader refuses both
  // instead of guessing: v1 ("SSNAPSHO": an epoch, then each table inline)
  // and v2 ("SSNAPS02": an epoch, then framed entries).
  Catalog cat;
  Table* t = *cat.CreateTable("t", KvSchema());
  ASSERT_TRUE(t->Insert({Value::BigInt(1), Value::BigInt(2)}).ok());
  ByteWriter v1;
  v1.PutU64(0x53534e415053484full);  // "SSNAPSHO"
  v1.PutU64(1);
  v1.PutU32(1);
  v1.PutString("t");
  v1.PutU8(static_cast<uint8_t>(t->kind()));
  t->SerializeTo(&v1);
  ByteWriter body;
  t->SerializeTo(&body);
  ByteWriter v2;
  v2.PutU64(0x53534e4150533032ull);  // "SSNAPS02"
  v2.PutU64(1);
  v2.PutU32(1);
  v2.PutString("t");
  v2.PutU8(static_cast<uint8_t>(t->kind()));
  v2.PutU8(0);  // full entry
  v2.PutU32(static_cast<uint32_t>(body.size()));
  v2.PutBytes(body.data().data(), body.size());
  for (const ByteWriter* retired : {&v1, &v2}) {
    std::string path = TempPath("snap_retired.bin");
    ASSERT_NO_FATAL_FAILURE(WriteBytes(path, retired->data()));
    Catalog fresh;
    Table* t2 = *fresh.CreateTable("t", KvSchema());
    EXPECT_EQ(SnapshotManager::RestoreSnapshot(path, &fresh).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(t2->row_count(), 0u);
  }
}

TEST(SnapshotTest, HugeCountsInAnEntryAreCorruptionNotACrash) {
  // A length-prefixed entry whose body claims 2^32-1 columns (or values in
  // a row) must fail on the bytes actually present, not try to allocate
  // for the claimed count first.
  Catalog cat;
  Table* t = *cat.CreateTable("t", KvSchema());
  for (bool in_schema : {true, false}) {
    ByteWriter body;
    if (in_schema) {
      body.PutU32(0xFFFFFFFFu);  // column count
    } else {
      t->schema().SerializeTo(&body);
      body.PutU64(1);            // next_seq
      body.PutU32(1);            // rows
      body.PutU32(0xFFFFFFFFu);  // values in the row
    }
    ByteWriter file;
    file.PutU64(0x53534e4150533033ull);  // "SSNAPS03"
    file.PutU32(1);
    file.PutString("t");
    file.PutU8(static_cast<uint8_t>(t->kind()));
    file.PutU8(0);  // full entry
    file.PutU32(static_cast<uint32_t>(body.data().size()));
    file.PutBytes(body.data().data(), body.data().size());
    std::string path = TempPath("snap_huge_count.bin");
    ASSERT_NO_FATAL_FAILURE(WriteBytes(path, file.data()));
    EXPECT_EQ(SnapshotManager::RestoreSnapshot(path, &cat).code(),
              StatusCode::kCorruption)
        << (in_schema ? "column count" : "row arity");
  }
}

TEST(SnapshotTest, DeltaBaseTruncatedMidEntryIsCorruption) {
  // "cold" dominates the base file, so cutting it in half lands inside
  // cold's full entry; the delta snapshot references exactly that entry.
  Catalog cat;
  Table* cold = *cat.CreateTable("cold", KvSchema());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(cold->Insert({Value::BigInt(i), Value::BigInt(i)}).ok());
  }
  Table* hot = *cat.CreateTable("hot", KvSchema());
  ASSERT_TRUE(hot->Insert({Value::BigInt(1), Value::BigInt(1)}).ok());
  std::string base = TempPath("snap_base_1.bin");
  std::string delta = TempPath("snap_base_2.bin");
  ASSERT_TRUE(SnapshotManager::WriteSnapshot(base, cat).ok());
  SnapshotDeltaSpec spec;
  spec.unchanged["cold"] = 1;
  ASSERT_TRUE(
      SnapshotManager::WriteSnapshot(delta, cat, &spec, nullptr).ok());
  SnapshotBaseResolver resolver = [&](uint64_t) { return base; };

  Catalog intact;
  ASSERT_TRUE(intact.CreateTable("cold", KvSchema()).ok());
  ASSERT_TRUE(intact.CreateTable("hot", KvSchema()).ok());
  ASSERT_TRUE(SnapshotManager::RestoreSnapshot(delta, &intact, resolver).ok());
  EXPECT_EQ((*intact.GetTable("cold"))->row_count(), 200u);

  std::FILE* f = std::fopen(base.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::vector<uint8_t> bytes(1 << 16);
  bytes.resize(std::fread(bytes.data(), 1, bytes.size(), f));
  std::fclose(f);
  ASSERT_GT(bytes.size(), 1000u);
  bytes.resize(bytes.size() / 2);
  ASSERT_NO_FATAL_FAILURE(WriteBytes(base, bytes));

  Catalog fresh;
  ASSERT_TRUE(fresh.CreateTable("cold", KvSchema()).ok());
  ASSERT_TRUE(fresh.CreateTable("hot", KvSchema()).ok());
  Status st = SnapshotManager::RestoreSnapshot(delta, &fresh, resolver);
  EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("cold"), std::string::npos) << st.ToString();
}

TEST(SnapshotTest, MissingFileIsIOError) {
  Catalog cat;
  EXPECT_EQ(SnapshotManager::RestoreSnapshot("/nonexistent/x.bin", &cat).code(),
            StatusCode::kIOError);
}

TEST_F(EngineTest, LoggingPolicyStrongLogsEverything) {
  std::string path = TempPath("policy_strong.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.sync = false;
  ASSERT_TRUE(part_.AttachCommandLog(opts, RecoveryMode::kStrong).ok());
  ASSERT_TRUE(part_.ExecuteSync("put", {Value::BigInt(1), Value::BigInt(1)})
                  .committed());
  ASSERT_TRUE(part_.DetachCommandLog().ok());
  EXPECT_EQ(ReadWholeLog(path).size(), 1u);
}

TEST_F(EngineTest, AbortedTxnNotLogged) {
  std::string path = TempPath("policy_abort.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.sync = false;
  ASSERT_TRUE(part_.AttachCommandLog(opts, RecoveryMode::kStrong).ok());
  part_.ExecuteSync("fail_after_write", {Value::BigInt(1), Value::BigInt(1)});
  ASSERT_TRUE(part_.DetachCommandLog().ok());
  EXPECT_EQ(ReadWholeLog(path).size(), 0u);
}

// The second child's log append fails after both children ran: the group
// is one unit, so the first child's write must unwind too.
TEST_F(EngineTest, NestedGroupRollsBackWhenAChildsLogAppendFails) {
  CommandLog::Options opts;
  opts.path = TempPath("nested_append_fail.log");
  opts.sync = false;
  ASSERT_TRUE(part_.AttachCommandLog(opts, RecoveryMode::kStrong).ok());
  failpoint::Activate("command_log.append", failpoint::Action::kError,
                      /*skip=*/1);
  std::vector<Invocation> children = {
      {"put", {Value::BigInt(1), Value::BigInt(1)}, 0},
      {"put", {Value::BigInt(2), Value::BigInt(2)}, 0}};
  TxnOutcome out = part_.ExecuteNestedSync(children);
  failpoint::ResetAll();
  EXPECT_EQ(out.status.code(), StatusCode::kIOError);
  EXPECT_EQ((*part_.catalog().GetTable("kv"))->row_count(), 0u);
  EXPECT_EQ(part_.stats().committed, 0u);
  EXPECT_EQ(part_.stats().aborted, 2u);
  ASSERT_TRUE(part_.DetachCommandLog().ok());
}

TEST(LoggingPolicyTest, WeakModeSkipsInteriorProcs) {
  Partition part;
  ASSERT_TRUE(part.catalog().CreateTable("kv", KvSchema()).ok());
  auto noop = std::make_shared<LambdaProcedure>(
      [](ProcContext&) { return Status::OK(); });
  ASSERT_TRUE(part.RegisterProcedure("border", SpKind::kBorder, noop).ok());
  ASSERT_TRUE(part.RegisterProcedure("interior", SpKind::kInterior, noop).ok());
  ASSERT_TRUE(part.RegisterProcedure("oltp", SpKind::kOltp, noop).ok());

  std::string path = TempPath("policy_weak.log");
  CommandLog::Options opts;
  opts.path = path;
  opts.sync = false;
  ASSERT_TRUE(part.AttachCommandLog(opts, RecoveryMode::kWeak).ok());
  ASSERT_TRUE(part.ExecuteSync("border", {}, 1).committed());
  ASSERT_TRUE(part.ExecuteSync("interior", {}, 1).committed());
  ASSERT_TRUE(part.ExecuteSync("oltp", {}).committed());
  ASSERT_TRUE(part.DetachCommandLog().ok());

  std::vector<LogRecord> records = ReadWholeLog(path);
  ASSERT_EQ(records.size(), 2u);  // border + oltp; interior skipped
  EXPECT_EQ(records[0].proc, "border");
  EXPECT_EQ(records[1].proc, "oltp");
}

TEST(ProcedureKindTest, RegistryReportsKinds) {
  Partition part;
  auto noop = std::make_shared<LambdaProcedure>(
      [](ProcContext&) { return Status::OK(); });
  ASSERT_TRUE(part.RegisterProcedure("a", SpKind::kBorder, noop).ok());
  EXPECT_EQ(*part.ProcedureKind("a"), SpKind::kBorder);
  EXPECT_TRUE(part.ProcedureKind("b").status().IsNotFound());
  EXPECT_EQ(part.RegisterProcedure("a", SpKind::kOltp, noop).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(part.RegisterProcedure("c", SpKind::kOltp, nullptr).ok());
}

}  // namespace
}  // namespace sstore
