#pragma once
// Shared pieces of the end-to-end benchmark: run arguments, the result
// sink (metrics + correctness checks), order statistics and the
// requested-vs-delivered arithmetic every replay is checked against.

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "atoms/atom.hpp"
#include "emulator/emulator.hpp"
#include "profile/delta_frame.hpp"
#include "profile/profile.hpp"
#include "sys/clock.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch root for stores, trajectories, atoms
  std::string out;      ///< result document path
  std::string trace_out;  ///< span file path (traced runs)
};

/// Metrics and correctness bookkeeping of one run.
class Report {
 public:
  /// End-to-end metric (measured in both runs, printed untraced).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (printed by the traced run).
  void layer(const std::string& name, double value, const std::string& unit);

  /// One attempted operation; it fails when any of its checks failed.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// `n` attempted operations of which `failed` failed.
  void attempts(uint64_t n, uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// A check inside an operation: records a diagnostic when false.
  bool check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Metric {
    double value;
    std::string unit;
  };
  const std::map<std::string, Metric>& e2e_metrics() const { return e2e_; }
  const std::map<std::string, Metric>& layer_metrics() const {
    return layers_;
  }

 private:
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Context {
  Args args;
  Tracer tracer;
  Report report;
  std::mt19937_64 rng;

  explicit Context(const Args& a)
      : args(a), tracer(a.trace), rng(a.seed) {}
  bool traced() const { return args.trace; }
};

/// Time budget of a measured loop: `while (budget.next())` runs at least
/// one iteration and starts another only while one more of the average
/// length so far still fits in the budget, so a run ends near --seconds
/// instead of overshooting it by up to a whole iteration.
class Budget {
 public:
  explicit Budget(double seconds) : seconds_(seconds) {}
  bool next() {
    const double t = watch_.elapsed();
    if (done_ > 0 && t + t / done_ > seconds_) return false;
    ++done_;
    return true;
  }

 private:
  const synapse::sys::Stopwatch watch_;
  const double seconds_;
  int done_ = 0;
};

/// Repetitions of a store set-up (open + cold first lookup) per cycle:
/// a single sub-millisecond set-up is too noisy to compare across runs.
constexpr int kSetupRepeats = 10;

// --- order statistics ------------------------------------------------------

/// Linearly interpolated quantile (q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}
double mean(const std::vector<double>& values);

// --- requested vs delivered --------------------------------------------------

/// What a replay of `table` asks of the built-in atoms, summed with the
/// atoms' own per-row rules (positive deltas only, bytes truncated to
/// whole bytes).
struct Requested {
  double cycles = 0.0;
  uint64_t bytes_allocated = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
};
Requested requested_work(const synapse::profile::DeltaTable& table);

/// Check one replay against the profile it replayed: every row fed,
/// memory and storage bytes delivered exactly, compute cycles within the
/// calibration tolerance of the compute kernel on the active resource.
/// Returns true when every check passed.
bool check_replay(Report& report, const std::string& what,
                  const synapse::emulator::EmulationResult& result,
                  const synapse::profile::DeltaTable& table,
                  const synapse::emulator::EmulatorOptions& options);

/// Seconds the compute atom asks its kernel to burn for `stats.cycles`
/// on the active resource (the denominator of the time ratio).
double requested_compute_seconds(const synapse::atoms::AtomStats& stats);

/// min(a, b) / max(a, b): 1 when equal, towards 0 as they diverge.
double closeness(double a, double b);

/// Per-layer metrics of one replay's atoms, medians over `results`:
/// atoms.<name>.busy_s, .us_per_call, .delivered_ratio and
/// atoms.compute.time_ratio. Atoms absent from every result report 0.
void report_atom_layers(
    Report& report,
    const std::vector<synapse::emulator::EmulationResult>& results,
    const std::vector<Requested>& requested);

/// Duration (s) of one ReplayPlan compile for `profile` with `options`,
/// in an "emulator.plan" span; the atoms are built through the registry
/// exactly as the engine builds them, outside the span.
double time_replay_plan(Tracer& tracer, uint64_t op, uint64_t parent,
                        const synapse::profile::Profile& profile,
                        const synapse::emulator::EmulatorOptions& options);

/// Resident set of this process now, and its peak so far, in MiB.
/// A workload reports peak_rss_growth_mb as the peak minus the resident
/// set it had once its inputs existed: the memory its Synapse calls add.
double resident_mb();
double peak_resident_mb();

/// Store directory / file helpers (all paths under Args::workdir).
std::string fresh_dir(const std::string& parent, const std::string& name);
void remove_tree(const std::string& path);

/// Run entry points, one per workload.
void run_mdsim_roundtrip(Context& ctx);
void run_ensemble_store(Context& ctx);

}  // namespace perfbench
