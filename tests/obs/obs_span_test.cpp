// Span-tree shape under a scripted FakeClock: ids, parent linkage, thread
// indices, and timings are all exactly predictable, so these tests assert
// the full tree rather than loose invariants.
#include "src/obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "src/obs/clock.h"
#include "src/obs/registry.h"

namespace {

using rs::obs::FakeClock;
using rs::obs::Registry;
using rs::obs::Span;
using rs::obs::SpanRecord;

const SpanRecord* find_span(const std::vector<SpanRecord>& spans,
                            const std::string& name) {
  const auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const SpanRecord& s) {
                                 return s.name == name;
                               });
  return it == spans.end() ? nullptr : &*it;
}

TEST(ObsSpan, RecordsStartAndDurationFromInjectedClock) {
  FakeClock clock(1000, 500);  // readings: 1000, 1500, 2000, ...
  Registry reg;
  reg.enable(&clock);

  { Span span(reg, "stage/a"); }

  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "stage/a");
  EXPECT_EQ(spans[0].start_ns, 1000u);
  EXPECT_EQ(spans[0].duration_ns, 500u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(clock.calls(), 2u);  // one per construction, one per destruction
}

TEST(ObsSpan, NestedSpansLinkToInnermostParent) {
  FakeClock clock(0, 1);
  Registry reg;
  reg.enable(&clock);

  {
    Span outer(reg, "stage/outer");
    {
      Span middle(reg, "stage/middle");
      { Span inner(reg, "stage/inner"); }
    }
    // A sibling opened after `middle` finished must link to `outer`,
    // not to the most recently created span.
    { Span sibling(reg, "stage/sibling"); }
  }

  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 4u);
  const auto* outer = find_span(spans, "stage/outer");
  const auto* middle = find_span(spans, "stage/middle");
  const auto* inner = find_span(spans, "stage/inner");
  const auto* sibling = find_span(spans, "stage/sibling");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(sibling, nullptr);

  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(middle->parent, outer->id);
  EXPECT_EQ(inner->parent, middle->id);
  EXPECT_EQ(sibling->parent, outer->id);
  // All on the calling thread.
  EXPECT_EQ(outer->thread, inner->thread);
  EXPECT_EQ(outer->thread, sibling->thread);
}

TEST(ObsSpan, SpansOnOtherThreadsStartTheirOwnChain) {
  FakeClock clock(0, 1);
  Registry reg;
  reg.enable(&clock);

  {
    Span outer(reg, "stage/outer");
    std::thread t([&reg] { Span task(reg, "stage/task"); });
    t.join();
  }

  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 2u);
  const auto* outer = find_span(spans, "stage/outer");
  const auto* task = find_span(spans, "stage/task");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(task, nullptr);
  // Parent linkage is per-thread: the other thread's span is a root, and
  // the two spans carry distinct dense thread indices.
  EXPECT_EQ(task->parent, 0u);
  EXPECT_NE(task->thread, outer->thread);
}

TEST(ObsSpan, ThreadIndicesAreFreshPerRegistry) {
  // A thread that took an index in one registry takes a fresh one in the
  // next: every registry numbers its own threads, so a new thread and an
  // old one never share an index there.
  {
    Registry first;
    EXPECT_EQ(first.thread_index(), 0u);
  }
  Registry second;
  std::uint32_t other = ~0u;
  std::thread t([&] { other = second.thread_index(); });
  t.join();
  EXPECT_EQ(other, 0u);
  EXPECT_EQ(second.thread_index(), 1u);
}

TEST(ObsSpan, ItemsAccumulate) {
  FakeClock clock;
  Registry reg;
  reg.enable(&clock);

  {
    Span span(reg, "stage/items");
    span.set_items(10);
    span.add_items(5);
  }

  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].items, 15u);
}

TEST(ObsSpan, ResetRestartsIdsAndThreadIndices) {
  FakeClock clock;
  Registry reg;
  reg.enable(&clock);

  { Span span(reg, "stage/first"); }
  reg.reset();
  { Span span(reg, "stage/second"); }

  const auto spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "stage/second");
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].thread, 0u);
}

}  // namespace
