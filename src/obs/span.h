// RAII trace spans with per-thread parent linkage.
//
// A Span measures one pipeline stage: construction reads the registry
// clock and links to the innermost live span on the same thread;
// destruction records a SpanRecord with the measured duration.  When the
// registry is disabled, construction is a single relaxed atomic load and
// destruction is a null check — no clock query, no allocation, no lock
// (enforced by tests/obs/obs_disabled_test.cpp).
//
// Span names should be 'layer/stage' literals ("formats/certdata",
// "jaccard/matrix", "report/table4"); the registry aggregates equal names
// into per-stage metrics.  The name must outlive the span (string
// literals always do; the record takes a copy only when the span ends).
#pragma once

#include <cstdint>
#include <string_view>

#include "src/obs/registry.h"

namespace rs::obs {

class Span {
 public:
  /// Opens a span on Registry::global().
  explicit Span(std::string_view name) : Span(Registry::global(), name) {}

  Span(Registry& registry, std::string_view name) {
    if (!registry.enabled()) return;
    registry_ = &registry;
    name_ = name;
    id_ = registry.next_span_id();
    parent_ = exchange_current(id_);
    start_ns_ = registry.clock().now_ns();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (registry_ == nullptr) return;
    SpanRecord record;
    record.name = std::string(name_);
    record.id = id_;
    record.parent = parent_;
    record.thread = registry_->thread_index();
    record.start_ns = start_ns_;
    record.duration_ns = registry_->clock().now_ns() - start_ns_;
    record.items = items_;
    exchange_current(parent_);
    registry_->record_span(std::move(record));
  }

  /// Attaches a workload size (certificates decoded, pairs compared,
  /// iterations run) to the record.  No-op while disabled.
  void set_items(std::uint64_t items) noexcept {
    if (registry_ != nullptr) items_ = items;
  }
  void add_items(std::uint64_t items) noexcept {
    if (registry_ != nullptr) items_ += items;
  }

 private:
  // The innermost live span id on this thread; swapping keeps nesting
  // correct even when spans on the same thread interleave with pool tasks.
  static std::uint64_t exchange_current(std::uint64_t id) noexcept {
    thread_local std::uint64_t tls_current_span = 0;
    const std::uint64_t previous = tls_current_span;
    tls_current_span = id;
    return previous;
  }

  Registry* registry_ = nullptr;
  std::string_view name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  TimeNs start_ns_ = 0;
  std::uint64_t items_ = 0;
};

}  // namespace rs::obs
