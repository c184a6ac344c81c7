// Tests for the serialization-graph oracle, plus the end-to-end property
// the whole repository exists for: the dependency graph of a Bohm
// execution — extracted exactly from its version chains — is acyclic, and
// its edges all agree with timestamp order (the invariant of Section
// 3.3.3). Also demonstrates, from a trace, the SI write-skew cycle the
// paper's Figure 1 draws.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>

#include "bohm/engine.h"
#include "bohm/table.h"
#include "common/rand.h"
#include "test_util.h"
#include "verify/trace.h"

namespace bohm {
namespace {

using testutil::OneTable;

// ---------- SerializationGraph unit tests ----------

TEST(SerGraphTest, EmptyIsAcyclic) {
  SerializationGraph g;
  EXPECT_FALSE(g.HasCycle());
  EXPECT_TRUE(g.FindCycle().empty());
  EXPECT_TRUE(g.SerialOrder().empty());
}

TEST(SerGraphTest, ChainIsAcyclic) {
  SerializationGraph g;
  g.AddDep(1, 2, DepKind::kWw);
  g.AddDep(2, 3, DepKind::kWr);
  g.AddDep(3, 4, DepKind::kRw);
  EXPECT_FALSE(g.HasCycle());
  auto order = g.SerialOrder();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order.back(), 4u);
}

TEST(SerGraphTest, TwoNodeCycleDetected) {
  SerializationGraph g;
  g.AddDep(1, 2, DepKind::kRw);
  g.AddDep(2, 1, DepKind::kRw);
  EXPECT_TRUE(g.HasCycle());
  auto cycle = g.FindCycle();
  ASSERT_GE(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());
  EXPECT_TRUE(g.SerialOrder().empty());
}

TEST(SerGraphTest, LongCycleDetected) {
  SerializationGraph g;
  for (uint64_t i = 0; i < 100; ++i) {
    g.AddDep(i, (i + 1) % 100, DepKind::kWw);
  }
  EXPECT_TRUE(g.HasCycle());
  EXPECT_EQ(g.FindCycle().size(), 101u);
}

TEST(SerGraphTest, SelfEdgeIgnored) {
  SerializationGraph g;
  g.AddDep(5, 5, DepKind::kRw);
  EXPECT_FALSE(g.HasCycle());
  EXPECT_EQ(g.EdgeCount(), 0u);
}

TEST(SerGraphTest, DiamondIsAcyclic) {
  SerializationGraph g;
  g.AddDep(1, 2, DepKind::kWr);
  g.AddDep(1, 3, DepKind::kWr);
  g.AddDep(2, 4, DepKind::kRw);
  g.AddDep(3, 4, DepKind::kRw);
  EXPECT_FALSE(g.HasCycle());
  auto order = g.SerialOrder();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order.back(), 4u);
}

TEST(SerGraphTest, ToStringNamesEdges) {
  SerializationGraph g;
  g.AddDep(1, 2, DepKind::kRw);
  EXPECT_NE(g.ToString().find("T1 -rw-> T2"), std::string::npos);
}

// ---------- Trace-to-graph construction ----------

TEST(TraceGraphTest, WriteSkewCycleFromTrace) {
  // The paper's Figure 1: T1 reads x, writes y; T2 reads y, writes x —
  // both reading the initial versions (an SI interleaving). The graph
  // must contain the rw/rw cycle.
  TraceTxn t1{1, {{RecordId{0, 0}, 100}}, {{RecordId{0, 1}, 11}}};
  TraceTxn t2{2, {{RecordId{0, 1}, 200}}, {{RecordId{0, 0}, 22}}};
  // Values 100/200 are the initial versions (unwritten by any txn).
  std::unordered_map<RecordId, KeyHistory> hist;
  hist[RecordId{0, 0}] = KeyHistory{{2}};
  hist[RecordId{0, 1}] = KeyHistory{{1}};
  SerializationGraph g = BuildSerializationGraph({t1, t2}, hist);
  EXPECT_TRUE(g.HasCycle()) << g.ToString();
}

TEST(TraceGraphTest, SerialExecutionIsAcyclic) {
  // T1 writes x=11; T2 reads x=11 and writes x=22 (serial order 1 -> 2).
  TraceTxn t1{1, {}, {{RecordId{0, 0}, 11}}};
  TraceTxn t2{2, {{RecordId{0, 0}, 11}}, {{RecordId{0, 0}, 22}}};
  std::unordered_map<RecordId, KeyHistory> hist;
  hist[RecordId{0, 0}] = KeyHistory{{1, 2}};
  SerializationGraph g = BuildSerializationGraph({t1, t2}, hist);
  EXPECT_FALSE(g.HasCycle()) << g.ToString();
  auto order = g.SerialOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);
}

TEST(TraceGraphTest, ReadOfOverwrittenVersionGetsRwEdge) {
  // T3 read T1's version of x although T2 overwrote it: rw edge T3 -> T2.
  TraceTxn t1{1, {}, {{RecordId{0, 0}, 11}}};
  TraceTxn t2{2, {}, {{RecordId{0, 0}, 22}}};
  TraceTxn t3{3, {{RecordId{0, 0}, 11}}, {}};
  std::unordered_map<RecordId, KeyHistory> hist;
  hist[RecordId{0, 0}] = KeyHistory{{1, 2}};
  SerializationGraph g = BuildSerializationGraph({t1, t2, t3}, hist);
  EXPECT_FALSE(g.HasCycle());
  // T3 must be serializable before T2.
  auto order = g.SerialOrder();
  size_t pos2 = 0, pos3 = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 2) pos2 = i;
    if (order[i] == 3) pos3 = i;
  }
  EXPECT_LT(pos3, pos2) << g.ToString();
}

// ---------- End-to-end: Bohm execution graphs ----------

/// Verification transaction: RMWs `keys`, writing unique values that
/// encode its id, and recording everything it observed into `*trace`.
class TracedRmw final : public StoredProcedure {
 public:
  TracedRmw(uint64_t id, std::vector<Key> keys, TraceTxn* trace)
      : id_(id), keys_(std::move(keys)), trace_(*trace) {
    for (Key k : keys_) set_.AddRmw(0, k);
  }

  void Run(TxnOps& ops) override {
    trace_.id = id_;
    trace_.reads.clear();
    trace_.writes.clear();
    for (Key k : keys_) {
      const void* p = ops.Read(0, k);
      if (p != nullptr) {
        uint64_t v;
        std::memcpy(&v, p, sizeof(v));
        if (v != 0) trace_.reads[RecordId{0, k}] = v;
      }
      uint64_t mine = UniqueValue(id_, k);
      void* buf = ops.Write(0, k);
      std::memcpy(buf, &mine, sizeof(mine));
      trace_.writes[RecordId{0, k}] = mine;
    }
  }

  static uint64_t UniqueValue(uint64_t id, Key k) {
    return (id << 16) | (k + 1);
  }
  static uint64_t DecodeWriter(uint64_t value) { return value >> 16; }

 private:
  uint64_t id_;
  std::vector<Key> keys_;
  TraceTxn& trace_;
};

TEST(BohmGraphTest, RandomExecutionGraphAcyclicAndTsOrdered) {
  constexpr uint64_t kKeys = 12;
  constexpr int kTxns = 400;
  BohmConfig cfg;
  cfg.cc_threads = 3;
  cfg.exec_threads = 3;
  cfg.batch_size = 16;
  cfg.gc_enabled = false;  // keep full version chains for extraction
  BohmEngine engine(OneTable(kKeys), cfg);
  uint64_t zero = 0;
  for (Key k = 0; k < kKeys; ++k) ASSERT_TRUE(engine.Load(0, k, &zero).ok());
  ASSERT_TRUE(engine.Start().ok());

  // Sized up front: a trace slot never moves while its transaction runs.
  std::vector<TraceTxn> traces(kTxns);
  Rng rng(8080);
  for (int i = 0; i < kTxns; ++i) {
    uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(3));
    std::vector<Key> keys;
    while (keys.size() < n) {
      Key k = rng.Uniform(kKeys);
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    ASSERT_TRUE(engine
                    .Submit(std::make_unique<TracedRmw>(
                        static_cast<uint64_t>(i + 1), keys, &traces[i]))
                    .ok());
  }
  engine.WaitForIdle();

  // Extract per-key committed version order from the version chains
  // (newest first via head, so reverse).
  std::unordered_map<RecordId, KeyHistory> histories;
  const BohmTable* table = engine.db().table(0);
  for (Key k = 0; k < kKeys; ++k) {
    const std::atomic<Version*>* head = table->Head(k);
    ASSERT_NE(head, nullptr);
    std::vector<uint64_t> writers_newest_first;
    for (Version* v = head->load(); v != nullptr; v = v->prev) {
      ASSERT_TRUE(v->ready());
      uint64_t value;
      std::memcpy(&value, v->data(), sizeof(value));
      if (value == 0) continue;  // initial version
      writers_newest_first.push_back(TracedRmw::DecodeWriter(value));
    }
    KeyHistory hist;
    hist.writer_ids.assign(writers_newest_first.rbegin(),
                           writers_newest_first.rend());
    histories[RecordId{0, k}] = std::move(hist);
  }

  SerializationGraph graph = BuildSerializationGraph(traces, histories);
  EXPECT_EQ(graph.NodeCount(), static_cast<size_t>(kTxns));
  EXPECT_GT(graph.EdgeCount(), 0u);

  // 1. Serializable: no cycles.
  auto cycle = graph.FindCycle();
  EXPECT_TRUE(cycle.empty()) << "cycle found: " << graph.ToString();

  // 2. Stronger (Section 3.3.3): every dependency agrees with timestamp
  //    (= submission) order, i.e. the topological order exists and txn
  //    ids 1..N themselves are a valid serial order. Verify by checking
  //    each ww history is strictly increasing in id.
  for (const auto& [rec, hist] : histories) {
    (void)rec;
    for (size_t i = 1; i < hist.writer_ids.size(); ++i) {
      EXPECT_LT(hist.writer_ids[i - 1], hist.writer_ids[i])
          << "ww edge against timestamp order";
    }
  }
  engine.Stop();
}

}  // namespace
}  // namespace bohm
