// Span tracer: enable/disable semantics, nesting depth, cross-thread
// recording, ring overflow, and the Chrome trace-event export shape.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/trace.h"

namespace hsconas::obs {
namespace {

// Tests share one process-wide tracer; each test starts from a clean,
// enabled state and leaves the tracer disabled.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::clear();
    Tracer::enable();
  }
  void TearDown() override {
    Tracer::disable();
    Tracer::clear();
  }
};

std::vector<TraceEvent> events_named(const std::string& name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : Tracer::snapshot()) {
    if (name == e.name) out.push_back(e);
  }
  return out;
}

// The Tracer/ring/export tests construct TraceScope directly so they hold
// in both build configurations; the macro's per-config expansion gets its
// own gated tests at the bottom.

TEST_F(TraceTest, RecordsNamedSpanWithDuration) {
  { TraceScope scope("unit.simple"); }
  const auto events = events_named("unit.simple");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_GT(events[0].tid, 0u);
}

TEST_F(TraceTest, NestedScopesRecordDepthAndContainment) {
  {
    TraceScope outer("unit.outer");
    {
      TraceScope inner("unit.inner");
    }
  }
  const auto outer = events_named("unit.outer");
  const auto inner = events_named("unit.inner");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(outer[0].depth, 0u);
  EXPECT_EQ(inner[0].depth, 1u);
  // The inner span starts no earlier and ends no later than the outer.
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].dur_ns,
            outer[0].start_ns + outer[0].dur_ns);
}

TEST_F(TraceTest, SnapshotIsSortedByStartTime) {
  for (int i = 0; i < 5; ++i) {
    TraceScope scope("unit.sequence");
  }
  const auto events = Tracer::snapshot();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start_ns, events[i].start_ns);
  }
}

TEST_F(TraceTest, DynamicStringNamesAreCopied) {
  {
    const std::string name = std::string("unit.") + "dynamic";
    TraceScope scope(name);
  }  // the temporary string is long gone when snapshot() reads the name
  EXPECT_EQ(events_named("unit.dynamic").size(), 1u);
}

TEST_F(TraceTest, LongNamesAreTruncatedNotOverflowed) {
  const std::string name(200, 'x');
  { TraceScope scope(name); }
  const auto events = Tracer::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name),
            std::string(TraceEvent::kNameCapacity - 1, 'x'));
}

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  Tracer::disable();
  const std::uint32_t depth_before = detail::thread_depth();
  { TraceScope scope("unit.invisible"); }
  // A disabled scope is one relaxed load: no event, no depth bump.
  EXPECT_EQ(detail::thread_depth(), depth_before);
  EXPECT_TRUE(Tracer::snapshot().empty());

  // Re-enabling picks up new spans without losing the thread registration.
  Tracer::enable();
  { TraceScope scope("unit.visible"); }
  EXPECT_EQ(events_named("unit.visible").size(), 1u);
}

TEST_F(TraceTest, SpansFromMultipleThreadsGetDistinctTids) {
  std::thread t([] { TraceScope scope("unit.worker"); });
  { TraceScope scope("unit.main"); }
  t.join();
  const auto worker = events_named("unit.worker");
  const auto main_spans = events_named("unit.main");
  ASSERT_EQ(worker.size(), 1u);
  ASSERT_EQ(main_spans.size(), 1u);
  EXPECT_NE(worker[0].tid, main_spans[0].tid);
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDrops) {
  for (std::size_t i = 0; i < Tracer::kRingCapacity + 100; ++i) {
    TraceScope scope("unit.flood");
  }
  // This thread's ring holds at most kRingCapacity events; the overflow is
  // reported, not silently discarded. (Other test threads may have left
  // events in their own rings, hence >= on the bound.)
  EXPECT_GE(Tracer::dropped(), 100u);
  EXPECT_GE(events_named("unit.flood").size(), Tracer::kRingCapacity - 1);
}

TEST_F(TraceTest, OverflowDropsExactlyTheOldestWithoutCorruption) {
  // Uniquely named spans make the survivor set checkable: after capacity+N
  // single-thread spans, exactly the first N are gone, the remaining ring
  // is dense (every index present once) and still start-time ordered.
  constexpr std::size_t kExtra = 100;
  const std::uint64_t dropped_before = Tracer::dropped();
  for (std::size_t i = 0; i < Tracer::kRingCapacity + kExtra; ++i) {
    TraceScope scope("unit.seq_" + std::to_string(i));
  }
  EXPECT_EQ(Tracer::dropped() - dropped_before, kExtra);

  std::vector<std::size_t> indices;
  std::uint64_t prev_start = 0;
  for (const TraceEvent& e : Tracer::snapshot()) {
    const std::string name(e.name);
    ASSERT_EQ(name.rfind("unit.seq_", 0), 0u) << name;
    indices.push_back(std::stoul(name.substr(9)));
    EXPECT_GE(e.start_ns, prev_start);
    prev_start = e.start_ns;
  }
  ASSERT_EQ(indices.size(), Tracer::kRingCapacity);
  // Oldest kExtra events were overwritten; survivors are contiguous,
  // in-order, and each appears exactly once.
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], kExtra + i);
  }
}

TEST_F(TraceTest, ClearResetsTheDroppedCounter) {
  for (std::size_t i = 0; i < Tracer::kRingCapacity + 10; ++i) {
    TraceScope scope("unit.drop_reset");
  }
  EXPECT_GE(Tracer::dropped(), 10u);
  Tracer::clear();
  EXPECT_EQ(Tracer::dropped(), 0u);
  EXPECT_TRUE(Tracer::snapshot().empty());
}

TEST_F(TraceTest, ExportCarriesTheDroppedEventCount) {
  { TraceScope scope("unit.drop_export"); }
  const util::Json doc = trace_to_json(Tracer::snapshot(), 42);
  const util::Json* dropped = doc.find("droppedEvents");
  ASSERT_NE(dropped, nullptr);
  EXPECT_DOUBLE_EQ(dropped->as_double(), 42.0);
  // Default: a quiet ring exports zero, not a missing key.
  const util::Json quiet = trace_to_json(Tracer::snapshot());
  ASSERT_NE(quiet.find("droppedEvents"), nullptr);
  EXPECT_DOUBLE_EQ(quiet.find("droppedEvents")->as_double(), 0.0);
}

TEST_F(TraceTest, ChromeTraceExportShape) {
  {
    TraceScope outer("unit.export_outer");
    TraceScope inner("unit.export_inner");
  }
  const util::Json doc = trace_to_json(Tracer::snapshot());
  const util::Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GE(events->items().size(), 2u);
  const std::string dumped = doc.dump();
  EXPECT_NE(dumped.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(dumped.find("unit.export_outer"), std::string::npos);
  EXPECT_NE(dumped.find("unit.export_inner"), std::string::npos);
  EXPECT_NE(dumped.find("\"pid\""), std::string::npos);
  EXPECT_NE(dumped.find("\"tid\""), std::string::npos);
}

TEST_F(TraceTest, ItemCountTravelsToTheExportOnlyWhenGiven) {
  { TraceScope counted("unit.counted", 50); }
  { TraceScope plain("unit.plain"); }
  ASSERT_EQ(events_named("unit.counted").size(), 1u);
  EXPECT_EQ(events_named("unit.counted")[0].items, 50u);
  EXPECT_EQ(events_named("unit.plain")[0].items, 0u);

  const util::Json doc = trace_to_json(Tracer::snapshot());
  for (const util::Json& e : doc.find("traceEvents")->items()) {
    const util::Json* args = e.find("args");
    if (e.find("name")->as_string() == "unit.counted") {
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->find("items")->as_double(), 50.0);
    } else {
      EXPECT_EQ(args, nullptr);
    }
  }
}

#if defined(HSCONAS_TRACING_DISABLED)
TEST_F(TraceTest, CompiledOutMacroEmitsNothing) {
  HSCONAS_TRACE_SCOPE("unit.compiled_out");
  EXPECT_TRUE(Tracer::snapshot().empty());
}
#else
TEST_F(TraceTest, MacroRecordsLikeExplicitScope) {
  { HSCONAS_TRACE_SCOPE("unit.via_macro"); }
  EXPECT_EQ(events_named("unit.via_macro").size(), 1u);
}
#endif

}  // namespace
}  // namespace hsconas::obs
