#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "atoms/atom_registry.hpp"
#include "emulator/replay_engine.hpp"
#include "emulator/replay_plan.hpp"
#include "perfbench.hpp"
#include "profile/metrics.hpp"
#include "resource/cache_model.hpp"
#include "resource/resource_spec.hpp"
#include "sys/procfs.hpp"

namespace perfbench {

namespace m = synapse::metrics;
namespace fs = std::filesystem;
using synapse::atoms::AtomStats;
using synapse::emulator::EmulationResult;
using synapse::emulator::EmulatorOptions;
using synapse::profile::DeltaTable;
using synapse::profile::LaneTable;

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = {value, unit};
}

bool Report::check(bool ok, const std::string& what) {
  // Keep the first diagnostics only: one broken invariant repeats per op.
  if (!ok && failures_.size() < 20) failures_.push_back(what);
  return ok;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Requested requested_work(const DeltaTable& table) {
  const LaneTable& lanes = table.lanes();
  const uint32_t cycles = lanes.id(m::kCyclesUsed);
  const uint32_t alloc = lanes.id(m::kMemAllocated);
  const uint32_t written = lanes.id(m::kBytesWritten);
  const uint32_t read = lanes.id(m::kBytesRead);
  Requested r;
  for (size_t row = 0; row < table.rows(); ++row) {
    const double c = table.get(cycles, row);
    if (c > 0) r.cycles += c;
    const double a = table.get(alloc, row);
    if (a > 0) r.bytes_allocated += static_cast<uint64_t>(a);
    const double w = table.get(written, row);
    if (w > 0) r.bytes_written += static_cast<uint64_t>(w);
    const double rd = table.get(read, row);
    if (rd > 0) r.bytes_read += static_cast<uint64_t>(rd);
  }
  return r;
}

namespace {

bool in_set(const std::vector<std::string>& set, const std::string& name) {
  return std::find(set.begin(), set.end(), name) != set.end();
}

}  // namespace

bool check_replay(Report& report, const std::string& what,
                  const EmulationResult& result, const DeltaTable& table,
                  const EmulatorOptions& options) {
  const Requested req = requested_work(table);
  const auto atom_set =
      synapse::emulator::ReplayEngine::resolve_atom_set(options);
  bool ok = report.check(result.samples_replayed == table.rows(),
                         what + ": samples_replayed " +
                             std::to_string(result.samples_replayed) +
                             " != rows " + std::to_string(table.rows()));
  if (in_set(atom_set, "memory")) {
    ok &= report.check(result.memory.bytes_allocated == req.bytes_allocated,
                       what + ": memory atom allocated " +
                           std::to_string(result.memory.bytes_allocated) +
                           " of " + std::to_string(req.bytes_allocated) +
                           " bytes");
  }
  if (in_set(atom_set, "storage")) {
    ok &= report.check(result.storage.bytes_written == req.bytes_written &&
                           result.storage.bytes_read == req.bytes_read,
                       what + ": storage atom bytes differ from requested");
  }
  if (in_set(atom_set, "compute") && req.cycles > 0) {
    // The compute atom converts cycles through the kernel's calibration
    // bias, which the resource model bounds by the sustained boost gap.
    const auto& spec = synapse::resource::active_resource();
    const double tolerance =
        (spec.turbo_headroom() - 1.0) * spec.sustained_boost_gap + 1e-9;
    const double ratio = result.compute.cycles / req.cycles;
    ok &= report.check(std::fabs(ratio - 1.0) <= tolerance,
                       what + ": compute delivered " + std::to_string(ratio) +
                           "x the requested cycles");
  }
  return ok;
}

double requested_compute_seconds(const AtomStats& stats) {
  return synapse::resource::seconds_for_cycles(
      synapse::resource::active_resource(), stats.cycles);
}

double closeness(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0 ? std::min(a, b) / hi : 1.0;
}

void report_atom_layers(Report& report,
                        const std::vector<EmulationResult>& results,
                        const std::vector<Requested>& requested) {
  struct Acc {
    std::vector<double> busy, per_call, delivered, time_ratio;
  };
  std::map<std::string, Acc> acc;
  for (size_t i = 0; i < results.size(); ++i) {
    const EmulationResult& r = results[i];
    const Requested& req = requested[i];
    const auto add = [&](const std::string& name, const AtomStats& s,
                         double delivered, double asked) {
      if (s.samples_consumed == 0) return;
      Acc& a = acc[name];
      a.busy.push_back(s.busy_seconds);
      a.per_call.push_back(s.busy_seconds * 1e6 /
                           static_cast<double>(s.samples_consumed));
      a.delivered.push_back(asked > 0 ? delivered / asked : 1.0);
    };
    add("compute", r.compute, r.compute.cycles, req.cycles);
    add("memory", r.memory, static_cast<double>(r.memory.bytes_allocated),
        static_cast<double>(req.bytes_allocated));
    add("storage", r.storage,
        static_cast<double>(r.storage.bytes_written + r.storage.bytes_read),
        static_cast<double>(req.bytes_written + req.bytes_read));
    if (r.compute.samples_consumed > 0) {
      acc["compute"].time_ratio.push_back(
          r.compute.busy_seconds / requested_compute_seconds(r.compute));
    }
  }
  for (const char* name : {"compute", "memory", "storage"}) {
    const Acc& a = acc[name];
    const std::string prefix = std::string("atoms.") + name;
    report.layer(prefix + ".busy_s", median(a.busy), "s");
    report.layer(prefix + ".us_per_call", median(a.per_call), "us");
    report.layer(prefix + ".delivered_ratio", median(a.delivered), "ratio");
  }
  report.layer("atoms.compute.time_ratio", median(acc["compute"].time_ratio),
               "ratio");
}

double time_replay_plan(Tracer& tracer, uint64_t op, uint64_t parent,
                        const synapse::profile::Profile& profile,
                        const EmulatorOptions& options) {
  const synapse::atoms::AtomBuildContext context{
      options.compute, options.memory, options.storage, options.network};
  std::vector<std::unique_ptr<synapse::atoms::Atom>> active;
  for (const auto& name :
       synapse::emulator::ReplayEngine::resolve_atom_set(options)) {
    active.push_back(
        synapse::atoms::AtomRegistry::instance().create(name, context));
  }
  auto span = tracer.span("emulator.plan", op, parent);
  const synapse::emulator::ReplayPlan plan(profile, options, active);
  return span.stop();
}

namespace {

synapse::sys::ProcStatus self_status() {
  const auto status = synapse::sys::read_proc_status(getpid());
  if (!status) throw std::runtime_error("cannot read /proc/self/status");
  return *status;
}

}  // namespace

double resident_mb() {
  return static_cast<double>(self_status().vm_rss_bytes) / (1 << 20);
}

double peak_resident_mb() {
  return static_cast<double>(self_status().vm_hwm_bytes) / (1 << 20);
}

std::string fresh_dir(const std::string& parent, const std::string& name) {
  const fs::path path = fs::path(parent) / name;
  fs::remove_all(path);
  fs::create_directories(path);
  return path.string();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

}  // namespace perfbench
