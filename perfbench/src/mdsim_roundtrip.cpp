// mdsim-roundtrip: the paper's own loop (Figs. 4-5) on virtual resource
// `thinkie`. Each cycle runs mdsim natively in a forked child, profiles
// the same run at 20 Hz in another forked child, stores the profile in
// a files/SYNB store, reopens the store, looks the profile up and
// emulates it with the default atoms (compute + memory + storage).

#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/mdsim.hpp"
#include "emulator/emulator.hpp"
#include "perfbench.hpp"
#include "profile/profile_store.hpp"
#include "sys/clock.hpp"
#include "sys/rusage.hpp"
#include "sys/spawn.hpp"
#include "watchers/profiler.hpp"
#include "watchers/trace.hpp"
#include "watchers/watcher_registry.hpp"

namespace perfbench {

namespace {

using synapse::profile::Profile;
using synapse::profile::ProfileStore;
using synapse::profile::ProfileStoreOptions;

constexpr uint64_t kSteps = 500;
constexpr double kRateHz = 20.0;
constexpr int kWatcherProbeSamples = 20;

/// Lateness (ms) of every sample after the first against its nominal
/// tick: recorded timestamp minus (first timestamp + k / rate).
void tick_lateness(const Profile& p, std::vector<double>& out) {
  for (const auto& series : p.series) {
    const double rate =
        series.sample_rate_hz > 0 ? series.sample_rate_hz : p.sample_rate_hz;
    for (size_t k = 1; k < series.samples.size(); ++k) {
      const double nominal =
          series.samples[0].timestamp + static_cast<double>(k) / rate;
      out.push_back((series.samples[k].timestamp - nominal) * 1e3);
    }
  }
}

/// Cost of one sample() of each default watcher, observing this
/// process (the trace watcher reads a live trace file written here).
void probe_watchers(Context& ctx, uint64_t op,
                    std::map<std::string, std::vector<double>>& sample_us) {
  namespace w = synapse::watchers;
  const std::string trace_path = ctx.args.workdir + "/watcher-probe.trace";
  w::TraceWriter writer(trace_path);
  w::WatcherConfig config;
  config.pid = getpid();
  config.sample_rate_hz = kRateHz;
  config.trace_path = trace_path;
  for (const auto& name : w::WatcherRegistry::default_set()) {
    auto watcher = w::WatcherRegistry::instance().create(name, {});
    watcher->pre_process(config);
    for (int i = 0; i < kWatcherProbeSamples; ++i) {
      writer.add_counters(1000, 2000, 3000);
      auto span = ctx.tracer.span("watchers." + name + ".sample", op);
      watcher->sample(synapse::sys::wallclock_now());
      sample_us[name].push_back(span.stop() * 1e6);
    }
    watcher->post_process();
  }
}

}  // namespace

void run_mdsim_roundtrip(Context& ctx) {
  Report& report = ctx.report;
  Tracer& tracer = ctx.tracer;

  synapse::apps::MdOptions md;
  md.steps = kSteps;
  md.scratch_dir = ctx.args.workdir;
  synapse::watchers::ProfilerOptions popts;
  popts.sample_rate_hz = kRateHz;
  popts.scratch_dir = ctx.args.workdir;
  synapse::emulator::EmulatorOptions eopts;
  eopts.storage.base_dir = ctx.args.workdir;
  const std::string command = "mdsim --steps " + std::to_string(kSteps);
  const std::vector<std::string> tags = {"perfbench", "mdsim-roundtrip"};

  // End-to-end samples, one per cycle.
  std::vector<double> setup, roundtrip, overhead, fidelity;
  // Per-layer samples.
  std::vector<double> native, samples, late_ms, cpu_ms, open_ms, put_ms,
      find_cold_ms, find_hot_us, hit_ratio, inval_per_put, cached_mb,
      encode_ms, decode_ms, bytes_per_sample, delta_ms, plan_ms, startup_ms,
      feed_s, overhead_us, replayed;
  std::map<std::string, std::vector<double>> watcher_us;
  std::vector<synapse::emulator::EmulationResult> results;
  std::vector<Requested> requested;

  // The applications run in children, so from here on this process's
  // memory grows only by what the profiler, store and emulator hold.
  const double baseline_mb = resident_mb();

  Budget budget(ctx.args.seconds);
  for (int cycle = 0; budget.next(); ++cycle) {
    const uint64_t op = tracer.new_op();
    auto cycle_span = tracer.span("mdsim-roundtrip.cycle", op);
    const uint64_t parent = cycle_span.id();
    const std::string dir =
        fresh_dir(ctx.args.workdir, "mdsim-store-" + std::to_string(cycle));
    bool ok = true;

    {
      // Forked and timed spawn to reap, exactly as the profiler times Tx.
      auto span = tracer.span("apps.mdsim_native", op, parent);
      auto child = synapse::sys::ChildProcess::fork_function([md] {
        synapse::apps::run_md(md);
        return 0;
      });
      const synapse::sys::ExitStatus& status = child.wait();
      span.stop();
      ok &= report.check(status.success(), "mdsim: native run failed");
      native.push_back(status.wall_seconds);
    }

    // --- the Synapse round trip: profile -> store -> find -> emulate ---
    const synapse::sys::Stopwatch trip;
    Profile profiled;
    {
      synapse::watchers::Profiler profiler(popts);
      const double cpu_before = synapse::sys::rusage_self().cpu_seconds();
      auto span = tracer.span("watchers.profile_function", op, parent);
      profiled = profiler.profile_function(
          [md] {
            synapse::apps::run_md(md);
            return 0;
          },
          command, tags);
      span.stop();
      cpu_ms.push_back(
          (synapse::sys::rusage_self().cpu_seconds() - cpu_before) * 1e3);
    }
    ProfileStoreOptions sopts;
    sopts.backend = "files";
    sopts.directory = dir;
    {
      ProfileStore store(sopts);
      auto span = tracer.span("profile.store.put", op, parent);
      store.put(profiled);
      put_ms.push_back(span.stop() * 1e3);
      inval_per_put.push_back(
          static_cast<double>(store.cache_stats().invalidations));
    }
    auto open_span = tracer.span("profile.store.open", op, parent);
    ProfileStore store(sopts);
    const double open_s = open_span.stop();
    auto find_span = tracer.span("profile.store.find", op, parent);
    const auto found = store.find_latest_shared(command, tags);
    const double find_s = find_span.stop();
    ok &= report.check(found != nullptr, "mdsim: stored profile not found");
    if (!found) {
      report.attempt(false);
      remove_tree(dir);
      continue;
    }
    synapse::emulator::EmulationResult result;
    {
      synapse::emulator::Emulator emulator(eopts);
      auto span = tracer.span("emulator.emulate", op, parent);
      result = emulator.emulate(*found);
    }
    const double trip_s = trip.elapsed();

    // --- checks (outside the timed round trip) ---
    ok &= report.check(found->created_at == profiled.created_at &&
                           found->sample_count() == profiled.sample_count() &&
                           found->totals == profiled.totals,
                       "mdsim: stored profile reads back different");
    synapse::profile::DeltaTable table;
    {
      auto span = tracer.span("profile.frame.delta_table", op, parent);
      table = found->delta_table();
      delta_ms.push_back(span.stop() * 1e3);
    }
    ok &= check_replay(report, "mdsim emulate", result, table, eopts);
    report.attempt(ok);

    // Set-up as a later emulation of this profile pays it: reopen + cold
    // lookup (each new ProfileStore starts with an empty cache), at its
    // median over repetitions, plus the emulator's startup.
    std::vector<double> reopen;
    for (int i = 0; i < kSetupRepeats; ++i) {
      auto span = tracer.span("profile.store.open+find", op, parent);
      ProfileStore again(sopts);
      again.find_latest_shared(command, tags);
      reopen.push_back(span.stop());
    }
    setup.push_back(median(reopen) + result.startup_seconds);
    roundtrip.push_back(trip_s);
    overhead.push_back(profiled.runtime() / native.back());
    fidelity.push_back(closeness(result.wall_seconds, profiled.runtime()));

    samples.push_back(static_cast<double>(profiled.sample_count()));
    tick_lateness(profiled, late_ms);
    open_ms.push_back(open_s * 1e3);
    find_cold_ms.push_back(find_s * 1e3);
    startup_ms.push_back(result.startup_seconds * 1e3);
    const double feed = result.wall_seconds - result.startup_seconds;
    feed_s.push_back(feed);
    const double slowest = std::max(
        {result.compute.busy_seconds, result.memory.busy_seconds,
         result.storage.busy_seconds});
    overhead_us.push_back(
        (feed - slowest) * 1e6 /
        static_cast<double>(std::max<size_t>(result.samples_replayed, 1)));
    replayed.push_back(static_cast<double>(result.samples_replayed));
    results.push_back(result);
    requested.push_back(requested_work(table));

    if (ctx.traced()) {
      // Layer probes the untraced run skips: codec, hot lookup, plan
      // compile and the watchers' per-sample cost.
      {
        auto span = tracer.span("profile.store.find", op, parent);
        store.find_latest_shared(command, tags);
        find_hot_us.push_back(span.stop() * 1e6);
      }
      const auto stats = store.cache_stats();
      hit_ratio.push_back(static_cast<double>(stats.hits) /
                          static_cast<double>(stats.hits + stats.misses));
      cached_mb.push_back(static_cast<double>(stats.bytes) / (1 << 20));
      std::string bytes;
      {
        auto span = tracer.span("profile.codec.encode", op, parent);
        bytes = found->to_binary();
        encode_ms.push_back(span.stop() * 1e3);
      }
      bytes_per_sample.push_back(static_cast<double>(bytes.size()) /
                                 static_cast<double>(found->sample_count()));
      {
        auto span = tracer.span("profile.codec.decode", op, parent);
        Profile::from_binary(std::move(bytes));
        decode_ms.push_back(span.stop() * 1e3);
      }
      plan_ms.push_back(
          time_replay_plan(tracer, op, parent, *found, eopts) * 1e3);
      probe_watchers(ctx, op, watcher_us);
    }
    remove_tree(dir);
  }

  report.e2e("setup_s", median(setup), "s");
  report.e2e("throughput_per_s", 1.0 / mean(roundtrip), "1/s");
  report.e2e("latency_p50_ms", median(roundtrip) * 1e3, "ms");
  report.e2e("latency_p99_ms", quantile(roundtrip, 0.99) * 1e3, "ms");
  report.e2e("overhead_ratio", median(overhead), "ratio");
  report.e2e("fidelity", median(fidelity), "ratio");
  report.e2e("peak_rss_growth_mb", peak_resident_mb() - baseline_mb, "MiB");

  report.layer("apps.mdsim_native_s", median(native), "s");
  report.layer("watchers.samples", median(samples), "count");
  report.layer("watchers.tick_late_p50_ms", quantile(late_ms, 0.5), "ms");
  report.layer("watchers.tick_late_p90_ms", quantile(late_ms, 0.9), "ms");
  report.layer("watchers.profiler_cpu_ms", median(cpu_ms), "ms");
  for (const auto& [name, us] : watcher_us) {
    report.layer("watchers." + name + ".sample_us", median(us), "us");
  }
  report.layer("profile.codec.encode_ms", median(encode_ms), "ms");
  report.layer("profile.codec.decode_ms", median(decode_ms), "ms");
  report.layer("profile.codec.bytes_per_sample", median(bytes_per_sample),
               "B");
  report.layer("profile.store.open_ms", median(open_ms), "ms");
  report.layer("profile.store.put_p50_ms", quantile(put_ms, 0.5), "ms");
  report.layer("profile.store.put_p99_ms", quantile(put_ms, 0.99), "ms");
  report.layer("profile.store.find_cold_ms", median(find_cold_ms), "ms");
  report.layer("profile.store.find_hot_us", median(find_hot_us), "us");
  report.layer("profile.store.hit_ratio", median(hit_ratio), "ratio");
  report.layer("profile.store.invalidations_per_put", median(inval_per_put),
               "ratio");
  report.layer("profile.store.cached_mb", median(cached_mb), "MiB");
  report.layer("profile.frame.delta_table_ms", median(delta_ms), "ms");
  report.layer("emulator.plan_ms", median(plan_ms), "ms");
  report.layer("emulator.startup_ms", median(startup_ms), "ms");
  report.layer("emulator.feed_s", median(feed_s), "s");
  report.layer("emulator.overhead_us_per_sample", median(overhead_us), "us");
  report.layer("emulator.samples_replayed", median(replayed), "count");
  report_atom_layers(report, results, requested);
}

}  // namespace perfbench
