//===- perfbench/common.h - Shared pieces of the benchmark harness --------===//
//
// Part of GranLog's repository benchmark; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#ifndef GRANLOG_PERFBENCH_COMMON_H
#define GRANLOG_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace granlog {
class Tracer;
} // namespace granlog

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Adds the lifetime of a scope to a running total, in seconds.
class AddElapsed {
public:
  explicit AddElapsed(double &Total) : Total(Total) {}
  ~AddElapsed() { Total += secondsSince(Start); }
  AddElapsed(const AddElapsed &) = delete;
  AddElapsed &operator=(const AddElapsed &) = delete;

private:
  double &Total;
  Clock::time_point Start = Clock::now();
};

/// Calls \p Fn and adds its wall time to \p Total: the outside-in layer
/// timer the traced runs put around each public call.
template <typename F> auto timed(double &Total, F &&Fn) {
  AddElapsed Timer(Total);
  return Fn();
}

/// Exact percentile \p Q of raw samples: nearest rank over the sorted
/// values, no bucketing.  0 for no samples.
double percentile(std::vector<double> Samples, double Q);
/// Geometric mean of positive values; 0 for none.
double geomean(const std::vector<double> &Values);
/// Peak resident set size (VmHWM) of process \p Pid (0 = this one), MB.
double peakRssMb(long Pid = 0);
/// One SplitMix64 step, for the harness's own seeded choices.
uint64_t splitmix64(uint64_t &State);
/// printf into a std::string.
std::string format(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// The command line of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string Granlogd; ///< the daemon binary (session, churn)
  std::string TmpDir;   ///< this run's scratch directory
  /// Batch threads, min(nproc, 4); the server workloads use half of it.
  unsigned Threads = 1;
};

/// What one run prints: notes, counted operations and named metrics.
class Report {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Counts one failed operation; the first few reasons are printed.
  void fail(const std::string &Why);
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  void metric(const std::string &Name, double Value, const char *Unit);
  /// Prints the notes, then the result as one JSON line.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<std::string> Notes;
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

/// One slice of a timed window: the operations completed in it, its
/// length and their latencies.
struct Slice {
  double Ops = 0;
  double Seconds = 0;
  std::vector<double> LatencyMs;
};

/// Records the end-to-end metrics every workload shares and prints them
/// under the workload's own names; \p Op is "experiment", "program" or
/// "request".  Throughput and latency percentiles are computed per slice
/// and reported as the median over slices, so a burst of outside load
/// that hits a minority of the slices does not move them.
void reportEndToEnd(Report &R, const char *Op,
                    const std::vector<double> &SetUpSeconds,
                    const std::vector<Slice> &Slices, double PeakRssMb);

/// The simulated payoff of the analysis on the paper's experiments.
struct SimRatios {
  double Rolog = 0;     ///< geometric mean of T1/T0 over Table 1
  double AndProlog = 0; ///< the same over Table 2
  double StaticK = 0;   ///< Figure 2: T1 at the static K over the best T1
  bool operator==(const SimRatios &) const = default;
};

/// One pass of the paper's 42 experiments, each checked against the
/// interpreter-only reference.  Every workload reports its sim_* ratios.
SimRatios paperPass(Report &R);
void reportSim(const SimRatios &S, Report &R);

/// Span splits read back from support/Tracer with buildProfile, summed
/// over the tracers of one traced run.
struct SpanTotals {
  double SizeSelf = 0, CostSelf = 0, SolveSelf = 0, NormalizeSelf = 0;
  double ProbeSelf = 0;
  uint64_t Probes = 0, Hits = 0, Misses = 0, Dropped = 0;

  void add(const granlog::Tracer &T);
  /// Records the size, cost and diffeq span metrics per pass.
  void report(Report &R, double Passes) const;
};

/// Records the expr.* metrics from this process's ExprInterner.
void reportExprCounters(Report &R);

/// Prints each timed layer's share of \p TracedWall and records
/// trace.overhead and trace.unaccounted_share (the share of the traced
/// wall time no timer covers).
void reportTrace(Report &R,
                 const std::vector<std::pair<std::string, double>> &Layers,
                 double TracedWall, double Overhead);

void runPaper(const Options &O, Report &R);
void runBatch(const Options &O, Report &R);
void runServer(const Options &O, Report &R, bool Churn);

} // namespace perfbench

#endif // GRANLOG_PERFBENCH_COMMON_H
