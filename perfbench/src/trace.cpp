#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

#include "json/json.hpp"
#include "sys/clock.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, std::string name, uint64_t op,
                     uint64_t parent)
    : tracer_(tracer) {
  span_.name = std::move(name);
  span_.op = op;
  span_.parent = parent;
  if (tracer_.enabled_) span_.id = tracer_.next_span_.fetch_add(1) + 1;
  span_.start = synapse::sys::steady_now();
}

double Tracer::Scope::stop() {
  if (open_) {
    span_.end = synapse::sys::steady_now();
    open_ = false;
    if (tracer_.enabled_) tracer_.record(span_);
  }
  return span_.end - span_.start;
}

void Tracer::record(Span span) {
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write_chrome_trace(const std::string& path) const {
  namespace json = synapse::json;
  std::lock_guard<std::mutex> lock(mu_);
  double origin = 0.0;
  if (!spans_.empty()) {
    origin = std::min_element(spans_.begin(), spans_.end(),
                              [](const Span& a, const Span& b) {
                                return a.start < b.start;
                              })
                 ->start;
  }
  // Small dense thread ids read better in trace viewers than hashes.
  std::vector<uint64_t> threads;
  json::Array events;
  for (const auto& s : spans_) {
    auto it = std::find(threads.begin(), threads.end(), s.thread);
    if (it == threads.end()) it = threads.insert(threads.end(), s.thread);
    json::Object args;
    args["span"] = static_cast<double>(s.id);
    args["parent"] = static_cast<double>(s.parent);
    args["op"] = static_cast<double>(s.op);
    json::Object e;
    e["name"] = s.name;
    e["cat"] = s.name.substr(0, s.name.find('.'));
    e["ph"] = "X";
    e["ts"] = (s.start - origin) * 1e6;
    e["dur"] = (s.end - s.start) * 1e6;
    e["pid"] = 1.0;
    e["tid"] = static_cast<double>(it - threads.begin() + 1);
    e["args"] = json::Value(std::move(args));
    events.push_back(json::Value(std::move(e)));
  }
  json::Object doc;
  doc["traceEvents"] = json::Value(std::move(events));
  doc["displayTimeUnit"] = "ms";
  const std::string text = json::dump(json::Value(std::move(doc)));
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr ||
      std::fwrite(text.data(), 1, text.size(), f) != text.size()) {
    if (f != nullptr) std::fclose(f);
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::fclose(f);
}

}  // namespace perfbench
