// ensemble-store: the RADICAL-Pilot side of Synapse (paper section 2.1).
// Each round populates a files/SYNB store (8 shards) with 500 keys from
// the builtin scenario catalog, 4 repetitions each, via put_many, then
// reopens it. Two closed-loop clients issue 4 000 operations: 90 %
// find_latest_shared, 10 % put of a new repetition. Keys are drawn as
// floor(500 u^3), so a few hot keys take most traffic and pile up
// repetitions, while the whole key set exceeds the read cache. One
// client issues the same operations on a second store populated the
// same way, in phases alternating with the mix: the reference for what
// sharing costs. The paper gives no figures for ensemble store traffic,
// so this mix (keys, clients, find/put split, key skew) is an
// assumption, not a measured workload.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench.hpp"
#include "profile/profile_store.hpp"
#include "sys/clock.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using synapse::profile::Profile;
using synapse::profile::ProfileStore;
using synapse::profile::ProfileStoreOptions;

constexpr size_t kKeys = 500;
constexpr size_t kReps = 4;
constexpr size_t kMinSamples = 50;
constexpr size_t kMaxSamples = 500;
constexpr size_t kClients = 2;
constexpr size_t kOps = 4000;
constexpr size_t kPutEvery = 10;  ///< one operation in ten is a put
/// The one-client reference and the two-client mix alternate in this many
/// phases per round, so both see the same host speed.
constexpr size_t kPhases = 8;
constexpr int kDecodeRepeats = 3;
/// created_at of populated repetitions; puts in the mix count up from
/// kPutEpoch, so every put is newer than anything populated.
constexpr double kPopulateEpoch = 1.0e6;
constexpr double kPutEpoch = 2.0e6;

struct Key {
  std::string command;
  std::vector<std::string> tags;
};

/// Key of quantile u: floor(kKeys u^3), so low keys are hot.
size_t key_at(double u) {
  return std::min(kKeys - 1, static_cast<size_t>(kKeys * u * u * u));
}

double total(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

size_t draw_key(std::mt19937_64& rng) {
  return key_at(std::uniform_real_distribution<double>(0.0, 1.0)(rng));
}

struct Op {
  size_t key = 0;
  const Profile* put = nullptr;  ///< repetition a put copies; nullptr = lookup
  double created_at = 0.0;       ///< created_at of the put's copy
};

struct ClientResult {
  std::vector<double> lookup_s;
  std::vector<double> put_s;
  uint64_t failed = 0;
  std::string error;  ///< what stopped the client early, if anything
  std::map<size_t, double> last_put;  ///< key -> created_at this client wrote
};

/// Phase `phase` of kPhases of one client's pre-drawn operations.
std::pair<size_t, size_t> phase_range(const std::vector<Op>& ops,
                                      size_t phase) {
  return {ops.size() * phase / kPhases, ops.size() * (phase + 1) / kPhases};
}

/// One client's closed loop over ops[range].
void run_client(Context& ctx, ProfileStore& store,
                const std::vector<Key>& keys, const std::vector<Op>& ops,
                std::pair<size_t, size_t> range, ClientResult& out) {
  std::map<size_t, double>& last_put = out.last_put;
  for (size_t i = range.first; i < range.second; ++i) {
    const Op& op = ops[i];
    const Key& key = keys[op.key];
    const uint64_t id = ctx.tracer.new_op();
    if (op.put != nullptr) {
      // Copied here, outside the timed put, so that the benchmark does not
      // hold a round's puts in memory beside the store's own.
      Profile copy = *op.put;
      copy.created_at = op.created_at;
      auto span = ctx.tracer.span("profile.store.put", id);
      store.put(copy);
      out.put_s.push_back(span.stop());
      last_put[op.key] = op.created_at;
      continue;
    }
    auto span = ctx.tracer.span("profile.store.find", id);
    const auto found = store.find_latest_shared(key.command, key.tags);
    out.lookup_s.push_back(span.stop());
    const auto it = last_put.find(op.key);
    const bool fresh = found != nullptr && found->tags == key.tags &&
                       (it == last_put.end() || found->created_at >= it->second);
    if (!fresh) ++out.failed;
  }
}

}  // namespace

void run_ensemble_store(Context& ctx) {
  Report& report = ctx.report;
  Tracer& tracer = ctx.tracer;
  const auto& catalog = synapse::workload::builtin_scenarios();

  // --- seeded inputs: keys, repetitions, sample counts ---
  // Sample counts come in antithetic pairs (n, kMinSamples + kMaxSamples
  // - n): each repetition is uniform over the range, while every key
  // averages the same size, so which keys the seed makes hot does not
  // change how much a lookup decodes.
  std::uniform_int_distribution<size_t> sample_count(kMinSamples, kMaxSamples);
  std::vector<Key> keys(kKeys);
  std::vector<Profile> populate;
  populate.reserve(kKeys * kReps);
  for (size_t k = 0; k < kKeys; ++k) {
    synapse::workload::ScenarioSpec spec = catalog[k % catalog.size()];
    keys[k].tags = {"perfbench", "key-" + std::to_string(k)};
    std::vector<size_t> counts;
    for (size_t pair = 0; pair < kReps / 2; ++pair) {
      const size_t n = sample_count(ctx.rng);
      counts.push_back(n);
      counts.push_back(kMinSamples + kMaxSamples - n);
    }
    std::shuffle(counts.begin(), counts.end(), ctx.rng);
    for (size_t rep = 0; rep < kReps; ++rep) {
      spec.source.samples = counts[rep];
      Profile p = spec.make_profile();
      p.tags = keys[k].tags;
      p.created_at = kPopulateEpoch + static_cast<double>(k * kReps + rep);
      keys[k].command = p.command;
      populate.push_back(std::move(p));
    }
  }

  // Everything the benchmark itself holds exists now; memory the store
  // adds from here on shows as growth over this.
  const double baseline_mb = resident_mb();

  std::vector<double> setup, lookup_ms;
  // Rates and the hit ratio are pooled over all rounds, not medians.
  double mix_total_s = 0.0;
  int rounds = 0;
  double mix_latency_s = 0.0, solo_latency_s = 0.0;
  size_t solo_ops = 0;
  uint64_t mix_hits = 0, mix_lookups = 0;
  std::vector<double> put_many_ms, put_ms, open_ms, find_cold_ms, find_hot_us,
      hit_ratio, inval_per_put, cached_mb, encode_ms, decode_ms,
      bytes_per_sample;

  Budget budget(ctx.args.seconds);
  for (int round = 0; budget.next(); ++round) {
    const uint64_t op = tracer.new_op();
    auto round_span = tracer.span("ensemble-store.round", op);
    const uint64_t parent = round_span.id();

    // The round's operations, stratified so every round carries the same
    // load: u runs through kOps equal strata (one seeded draw in each),
    // and every kPutEvery-th operation in key order (seeded offset) is a
    // put, so each key sees its share of puts to within one. The seed
    // decides the exact keys, which operations put, which repetition a
    // put copies and the order the clients issue them in.
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const size_t put_offset = ctx.rng() % kPutEvery;
    std::vector<std::pair<size_t, bool>> plan(kOps);  // (key, is put)
    for (size_t i = 0; i < kOps; ++i) {
      plan[i] = {key_at((static_cast<double>(i) + u(ctx.rng)) / kOps),
                 i % kPutEvery == put_offset};
    }
    std::shuffle(plan.begin(), plan.end(), ctx.rng);
    std::vector<std::vector<Op>> ops(kClients);
    std::vector<size_t> expected_reps(kKeys, kReps);
    double next_put = kPutEpoch;
    std::uniform_int_distribution<size_t> any_rep(0, kReps - 1);
    for (size_t i = 0; i < kOps; ++i) {
      const size_t c = i * kClients / kOps;
      Op o;
      o.key = plan[i].first;
      if (plan[i].second) {
        o.put = &populate[o.key * kReps + any_rep(ctx.rng)];
        o.created_at = next_put++;
        ++expected_reps[o.key];
      }
      ops[c].push_back(o);
    }

    ProfileStoreOptions sopts;
    sopts.backend = "files";
    sopts.directory =
        fresh_dir(ctx.args.workdir, "ensemble-store-" + std::to_string(round));
    {
      ProfileStore store(sopts);
      auto span = tracer.span("profile.store.put_many", op, parent);
      store.put_many(populate);
      put_many_ms.push_back(span.stop() * 1e3);
    }
    // Set-up: reopen + first lookup of a drawn key, repeated (each new
    // ProfileStore starts with an empty cache); the last one serves the mix.
    std::vector<double> setups;
    std::optional<ProfileStore> store;
    const Key* first = nullptr;
    for (int i = 0; i < kSetupRepeats; ++i) {
      store.reset();
      auto open_span = tracer.span("profile.store.open", op, parent);
      store.emplace(sopts);
      const double open_s = open_span.stop();
      first = &keys[draw_key(ctx.rng)];
      auto find_span = tracer.span("profile.store.find", op, parent);
      const bool found =
          store->find_latest_shared(first->command, first->tags) != nullptr;
      const double find_s = find_span.stop();
      report.attempt(report.check(found, "ensemble: first lookup missed"));
      setups.push_back(open_s + find_s);
      open_ms.push_back(open_s * 1e3);
      find_cold_ms.push_back(find_s * 1e3);
    }
    setup.push_back(median(setups));
    if (ctx.traced()) {
      auto span = tracer.span("profile.store.find", op, parent);
      store->find_latest_shared(first->command, first->tags);
      find_hot_us.push_back(span.stop() * 1e6);
    }

    // --- the mix, and its one-client reference: the same operations
    // from one client on a second store populated the same way.
    // overhead_ratio divides the mix's mean operation latency by the
    // reference's (what sharing costs). The two alternate phase by phase.
    ProfileStoreOptions solo_opts = sopts;
    solo_opts.directory =
        fresh_dir(ctx.args.workdir, "ensemble-solo-" + std::to_string(round));
    ProfileStore(solo_opts).put_many(populate);
    std::optional<ProfileStore> solo(std::in_place, solo_opts);
    ClientResult solo_result;
    std::vector<ClientResult> results(kClients);
    double mix_s = 0.0;
    const auto before = store->cache_stats();
    for (size_t phase = 0; phase < kPhases; ++phase) {
      {
        auto span = tracer.span("ensemble-store.solo", op, parent);
        for (const auto& list : ops) {
          run_client(ctx, *solo, keys, list, phase_range(list, phase),
                     solo_result);
        }
      }
      std::atomic<size_t> ready{0};
      std::atomic<bool> go{false};
      std::vector<std::thread> clients;
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          ready.fetch_add(1);
          while (!go.load()) std::this_thread::yield();
          if (!results[c].error.empty()) return;
          try {
            run_client(ctx, *store, keys, ops[c], phase_range(ops[c], phase),
                       results[c]);
          } catch (const std::exception& e) {
            results[c].error = e.what();
          }
        });
      }
      while (ready.load() < kClients) std::this_thread::yield();
      auto mix_span = tracer.span("ensemble-store.mix", op, parent);
      go.store(true);
      for (auto& t : clients) t.join();
      mix_s += mix_span.stop();
    }
    const auto after = store->cache_stats();
    ++rounds;
    solo.reset();
    remove_tree(solo_opts.directory);
    solo_latency_s += total(solo_result.lookup_s) + total(solo_result.put_s);
    solo_ops += solo_result.lookup_s.size() + solo_result.put_s.size();
    report.check(solo_result.failed == 0,
                 "ensemble solo: " + std::to_string(solo_result.failed) +
                     " stale or missing lookups");
    report.attempts(solo_result.lookup_s.size() + solo_result.put_s.size(),
                    solo_result.failed);

    size_t round_puts = 0;
    for (const ClientResult& r : results) {
      for (const double s : r.lookup_s) lookup_ms.push_back(s * 1e3);
      for (const double s : r.put_s) put_ms.push_back(s * 1e3);
      round_puts += r.put_s.size();
      mix_latency_s += total(r.lookup_s) + total(r.put_s);
      report.check(r.failed == 0, "ensemble: " + std::to_string(r.failed) +
                                      " stale or missing lookups");
      if (!r.error.empty()) {
        report.attempt(report.check(false, "ensemble client: " + r.error));
      }
      report.attempts(r.lookup_s.size() + r.put_s.size(), r.failed);
    }
    mix_total_s += mix_s;
    const uint64_t round_hits = after.hits - before.hits;
    const uint64_t round_lookups =
        round_hits + (after.misses - before.misses);
    mix_hits += round_hits;
    mix_lookups += round_lookups;
    hit_ratio.push_back(static_cast<double>(round_hits) /
                        static_cast<double>(round_lookups));
    inval_per_put.push_back(
        static_cast<double>(after.invalidations - before.invalidations) /
        static_cast<double>(std::max<size_t>(round_puts, 1)));
    cached_mb.push_back(static_cast<double>(after.bytes) / (1 << 20));

    // --- read-back of every stored repetition (traced: codec probe) ---
    // One key at a time, so the check holds no more decoded profiles
    // than the store's cache does.
    std::map<double, const Profile*> written;
    for (const Profile& p : populate) written[p.created_at] = &p;
    for (const auto& list : ops) {
      for (const Op& o : list) {
        if (o.put != nullptr) written[o.created_at] = o.put;
      }
    }
    for (size_t k = 0; k < kKeys; ++k) {
      const auto stored = store->find_shared(keys[k].command, keys[k].tags);
      bool ok = report.check(stored->size() == expected_reps[k],
                             "ensemble: key " + std::to_string(k) + " holds " +
                                 std::to_string(stored->size()) + " of " +
                                 std::to_string(expected_reps[k]) +
                                 " repetitions");
      for (const Profile& p : *stored) {
        const auto it = written.find(p.created_at);
        ok &= report.check(
            it != written.end() &&
                p.sample_count() == it->second->sample_count() &&
                p.totals == it->second->totals,
            "ensemble: key " + std::to_string(k) +
                " reads back a repetition different from the one put");
      }
      report.attempt(ok);
      // Codec probe: encode and decode the key's latest repetition, the
      // fastest of kDecodeRepeats decodes (a ~50 us decode is
      // noise-prone).
      if (!ctx.traced() || stored->empty()) continue;
      const Profile& latest = stored->back();
      std::string bytes;
      {
        auto span = tracer.span("profile.codec.encode", op, parent);
        bytes = latest.to_binary();
        encode_ms.push_back(span.stop() * 1e3);
      }
      bytes_per_sample.push_back(static_cast<double>(bytes.size()) /
                                 static_cast<double>(latest.sample_count()));
      double fastest = 0.0;
      for (int i = 0; i < kDecodeRepeats; ++i) {
        auto span = tracer.span("profile.codec.decode", op, parent);
        Profile::from_binary(bytes);
        const double s = span.stop();
        fastest = i == 0 ? s : std::min(fastest, s);
      }
      decode_ms.push_back(fastest * 1e3);
    }
    store.reset();
    remove_tree(sopts.directory);
  }

  const double mix_ops = static_cast<double>(kOps) * rounds;
  report.e2e("setup_s", median(setup), "s");
  report.e2e("throughput_per_s", mix_ops / mix_total_s, "1/s");
  report.e2e("latency_p50_ms", quantile(lookup_ms, 0.5), "ms");
  report.e2e("latency_p99_ms", quantile(lookup_ms, 0.99), "ms");
  report.e2e("overhead_ratio",
             (mix_latency_s / mix_ops) /
                 (solo_latency_s / static_cast<double>(solo_ops)),
             "ratio");
  report.e2e("fidelity",
             static_cast<double>(mix_hits) / static_cast<double>(mix_lookups),
             "ratio");
  report.e2e("peak_rss_growth_mb", peak_resident_mb() - baseline_mb, "MiB");

  report.layer("profile.codec.encode_ms", median(encode_ms), "ms");
  report.layer("profile.codec.decode_ms", median(decode_ms), "ms");
  report.layer("profile.codec.bytes_per_sample", median(bytes_per_sample),
               "B");
  report.layer("profile.store.open_ms", median(open_ms), "ms");
  report.layer("profile.store.put_many_ms", median(put_many_ms), "ms");
  report.layer("profile.store.put_p50_ms", quantile(put_ms, 0.5), "ms");
  report.layer("profile.store.put_p99_ms", quantile(put_ms, 0.99), "ms");
  report.layer("profile.store.find_cold_ms", median(find_cold_ms), "ms");
  report.layer("profile.store.find_hot_us", median(find_hot_us), "us");
  report.layer("profile.store.hit_ratio", median(hit_ratio), "ratio");
  report.layer("profile.store.invalidations_per_put", median(inval_per_put),
               "ratio");
  report.layer("profile.store.cached_mb", median(cached_mb), "MiB");
}

}  // namespace perfbench
