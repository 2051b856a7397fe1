// synapse_perfbench: one run of one benchmark workload.
//
//   synapse_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     --workdir DIR --out RESULT.json [--trace-out SPANS.json]
//
// Workloads: mdsim-roundtrip, ensemble-store (README.md).
// Every input is generated from --seed; every store, trajectory and atom
// file lives under --workdir. The result document holds the end-to-end
// metrics, the per-layer metrics (traced runs), the correctness tally
// and its first diagnostics; perfbench/run.py turns it into the
// benchmark's result line. Exit status is 0 whenever a result was
// written, 1 on a fatal error, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "json/json.hpp"
#include "perfbench.hpp"
#include "resource/resource_spec.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric, reported as 0 by workloads that never reach
/// the layer (the workload's own run overwrites what it measures).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"watchers.samples", "count"},
    {"watchers.tick_late_p50_ms", "ms"},
    {"watchers.tick_late_p90_ms", "ms"},
    {"watchers.profiler_cpu_ms", "ms"},
    {"watchers.cpu.sample_us", "us"},
    {"watchers.mem.sample_us", "us"},
    {"watchers.io.sample_us", "us"},
    {"watchers.sys.sample_us", "us"},
    {"watchers.trace.sample_us", "us"},
    {"apps.mdsim_native_s", "s"},
    {"profile.codec.encode_ms", "ms"},
    {"profile.codec.decode_ms", "ms"},
    {"profile.codec.bytes_per_sample", "B"},
    {"profile.store.open_ms", "ms"},
    {"profile.store.put_many_ms", "ms"},
    {"profile.store.put_p50_ms", "ms"},
    {"profile.store.put_p99_ms", "ms"},
    {"profile.store.find_cold_ms", "ms"},
    {"profile.store.find_hot_us", "us"},
    {"profile.store.hit_ratio", "ratio"},
    {"profile.store.invalidations_per_put", "ratio"},
    {"profile.store.cached_mb", "MiB"},
    {"profile.frame.delta_table_ms", "ms"},
    {"emulator.plan_ms", "ms"},
    {"emulator.startup_ms", "ms"},
    {"emulator.feed_s", "s"},
    {"emulator.overhead_us_per_sample", "us"},
    {"emulator.samples_replayed", "count"},
    {"atoms.compute.busy_s", "s"},
    {"atoms.compute.us_per_call", "us"},
    {"atoms.compute.delivered_ratio", "ratio"},
    {"atoms.compute.time_ratio", "ratio"},
    {"atoms.memory.busy_s", "s"},
    {"atoms.memory.us_per_call", "us"},
    {"atoms.memory.delivered_ratio", "ratio"},
    {"atoms.storage.busy_s", "s"},
    {"atoms.storage.us_per_call", "us"},
    {"atoms.storage.delivered_ratio", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "synapse_perfbench: %s\nusage: synapse_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 --workdir DIR --out "
               "FILE [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("every flag takes a value");
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("--seconds takes a number > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty() || a.workdir.empty() || a.out.empty()) {
    usage("--workload, --workdir and --out are required");
  }
  return a;
}

synapse::json::Value metrics_json(
    const std::map<std::string, Report::Metric>& metrics) {
  synapse::json::Object out;
  for (const auto& [name, metric] : metrics) {
    synapse::json::Object m;
    m["value"] = metric.value;
    m["unit"] = metric.unit;
    out[name] = synapse::json::Value(std::move(m));
  }
  return synapse::json::Value(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Context ctx(args);
  try {
    // The paper's profiling host (Figs. 4-5); every workload runs on it.
    synapse::resource::activate_resource("thinkie");
    for (const auto& m : kLayerMetrics) ctx.report.layer(m.name, 0.0, m.unit);
    if (args.workload == "mdsim-roundtrip") {
      run_mdsim_roundtrip(ctx);
    } else if (args.workload == "ensemble-store") {
      run_ensemble_store(ctx);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }

    namespace json = synapse::json;
    const Report& r = ctx.report;
    json::Array failures;
    for (const auto& f : r.failures()) failures.push_back(f);
    json::Object doc;
    doc["workload"] = args.workload;
    doc["seed"] = static_cast<double>(args.seed);
    doc["seconds"] = args.seconds;
    doc["trace"] = args.trace;
    doc["correct"] = r.failed() == 0 && r.attempted() > 0;
    doc["attempted"] = static_cast<double>(r.attempted());
    doc["failed"] = static_cast<double>(r.failed());
    doc["failures"] = json::Value(std::move(failures));
    doc["end_to_end"] = metrics_json(r.e2e_metrics());
    doc["per_layer"] = metrics_json(r.layer_metrics());
    doc["spans"] = static_cast<double>(ctx.tracer.size());
    json::save_file(args.out, json::Value(std::move(doc)), 2);
    if (args.trace && !args.trace_out.empty()) {
      ctx.tracer.write_chrome_trace(args.trace_out);
    }
    for (const auto& f : r.failures()) {
      std::fprintf(stderr, "check failed: %s\n", f.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "synapse_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
