#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark wraps every call into a Synapse layer in a span: name
// (the layer and call, e.g. "profile.store.find"), start, end, the span
// that caused it, and the id of the operation it belongs to (all spans
// of one round trip, replay or store operation share it). Spans stay in
// memory and are written out once, at the end, as a Chrome trace-event
// file (chrome://tracing, Perfetto).
//
// A Scope always reads the clock, so untraced runs time exactly the same
// calls; only the bookkeeping is skipped when the tracer is disabled.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = a root span
  uint64_t op = 0;      ///< operation the span belongs to
  double start = 0.0;   ///< steady-clock seconds
  double end = 0.0;
  uint64_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh operation id for a group of spans.
  uint64_t new_op() { return next_op_.fetch_add(1) + 1; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, uint64_t op, uint64_t parent);
    ~Scope() { stop(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// End the span now (idempotent); returns its duration in seconds.
    double stop();
    uint64_t id() const { return span_.id; }
    uint64_t op() const { return span_.op; }

   private:
    Tracer& tracer_;
    Span span_;
    bool open_ = true;
  };

  /// Open a span; it closes when the Scope is destroyed or stopped.
  Scope span(std::string name, uint64_t op, uint64_t parent = 0) {
    return Scope(*this, std::move(name), op, parent);
  }

  size_t size() const;

  /// Write the spans as a Chrome trace-event JSON document.
  void write_chrome_trace(const std::string& path) const;

 private:
  void record(Span span);

  const bool enabled_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<uint64_t> next_span_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
