//===- perfbench/main.cpp - The repository benchmark harness --------------===//
//
// Part of GranLog's repository benchmark; see perfbench/README.md.
//
// Usage:
//   perfbench --workload=paper|batch|session|churn --seed=N --seconds=S
//             --trace=0|1 --tmp=DIR [--granlogd=BIN]
//
// Runs one workload.  --trace=0 measures the end-to-end metrics;
// --trace=1 runs the workload with a timer around each layer's public
// calls and reports the per-layer metrics instead.  Prints notes, then one
// JSON line as the last line of stdout:
//   {"correct": B, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "expr/ExprInterner.h"
#include "support/Profile.h"
#include "support/Tracer.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sched.h>
#include <string_view>

using namespace perfbench;

double perfbench::percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  auto Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(Samples.size())));
  return Samples[std::clamp<size_t>(Rank, 1, Samples.size()) - 1];
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

double perfbench::peakRssMb(long Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024; // kB
  return 0;
}

uint64_t perfbench::splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::string perfbench::format(const char *Fmt, ...) {
  char Buf[512];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

void Report::fail(const std::string &Why) {
  if (Failed++ < 5)
    Notes.push_back("FAILED: " + Why);
}

void Report::metric(const std::string &Name, double Value, const char *Unit) {
  if (!std::isfinite(Value)) {
    fail("metric " + Name + " is not finite");
    Value = 0;
  }
  Metrics.push_back({Name, Value, Unit});
}

void Report::print() const {
  for (const std::string &N : Notes)
    std::printf("%s\n", N.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

void perfbench::reportEndToEnd(Report &R, const char *Op,
                               const std::vector<double> &SetUpSeconds,
                               const std::vector<Slice> &Slices,
                               double PeakRssMb) {
  std::vector<double> Rates, P50s, P99s;
  double Ops = 0, Wall = 0;
  size_t Samples = 0;
  for (const Slice &S : Slices) {
    Rates.push_back(S.Ops / S.Seconds);
    P50s.push_back(percentile(S.LatencyMs, 0.5));
    P99s.push_back(percentile(S.LatencyMs, 0.99));
    Ops += S.Ops;
    Wall += S.Seconds;
    Samples += S.LatencyMs.size();
  }
  double SetUp = percentile(SetUpSeconds, 0.5);
  double Rate = percentile(Rates, 0.5);
  double P50 = percentile(P50s, 0.5), P99 = percentile(P99s, 0.5);
  R.metric("setup_s", SetUp, "s");
  R.metric("throughput_per_s", Rate, "1/s");
  R.metric("latency_p50_ms", P50, "ms");
  R.metric("latency_p99_ms", P99, "ms");
  R.metric("peak_rss_mb", PeakRssMb, "MB");
  R.note(format("setup_s %.4f s (median of %zu set-ups)", SetUp,
                SetUpSeconds.size()));
  R.note(format("%ss_per_s %.2f 1/s (throughput_per_s; %.0f %ss in %.3f s, "
                "median over %zu slices)",
                Op, Rate, Ops, Op, Wall, Slices.size()));
  R.note(format("%s_p50_ms %.4f ms, %s_p99_ms %.4f ms (latency_p50_ms, "
                "latency_p99_ms; %zu samples, medians of the slices' exact "
                "percentiles)",
                Op, P50, Op, P99, Samples));
  R.note(format("peak_rss_mb %.1f MB", PeakRssMb));
}

void SpanTotals::add(const granlog::Tracer &T) {
  using namespace granlog;
  TraceProfile P = buildProfile(T.snapshot());
  auto Kind = [&](SpanKind K) -> const TraceProfile::KindAgg & {
    return P.ByKind[static_cast<unsigned>(K)];
  };
  SizeSelf += Kind(SpanKind::Size).SelfNs * 1e-9;
  CostSelf += Kind(SpanKind::Cost).SelfNs * 1e-9;
  SolveSelf += Kind(SpanKind::Solve).SelfNs * 1e-9;
  NormalizeSelf += Kind(SpanKind::Normalize).SelfNs * 1e-9;
  ProbeSelf += Kind(SpanKind::CacheProbe).SelfNs * 1e-9;
  Probes += Kind(SpanKind::CacheProbe).Count;
  Hits += P.CacheOutcomes[TraceCacheHit].Count +
          P.CacheOutcomes[TraceCacheDiskHit].Count;
  Misses += P.CacheOutcomes[TraceCacheMiss].Count;
  Dropped += T.dropped();
}

void SpanTotals::report(Report &R, double Passes) const {
  R.metric("size.self_s", SizeSelf / Passes, "s");
  R.metric("cost.self_s", CostSelf / Passes, "s");
  R.metric("diffeq.solve_self_s", SolveSelf / Passes, "s");
  R.metric("diffeq.normalize_self_s", NormalizeSelf / Passes, "s");
  R.metric("diffeq.cache_probe_s", ProbeSelf / Passes, "s");
  R.metric("diffeq.cache_hits", static_cast<double>(Hits) / Passes, "count");
  R.metric("diffeq.cache_misses", static_cast<double>(Misses) / Passes,
           "count");
  R.metric("diffeq.cache_hit_ratio",
           Probes ? static_cast<double>(Hits) / static_cast<double>(Probes)
                  : 0,
           "ratio");
  R.note(format("span self time per pass: size %.4f s, cost %.4f s, solve "
                "%.4f s, normalize %.4f s, cache probes %.4f s "
                "(%llu probes, %llu hits, %llu misses)",
                SizeSelf / Passes, CostSelf / Passes, SolveSelf / Passes,
                NormalizeSelf / Passes, ProbeSelf / Passes,
                static_cast<unsigned long long>(Probes),
                static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(Misses)));
  if (Dropped)
    R.note(format("the tracer rings dropped %llu spans: span splits are low",
                  static_cast<unsigned long long>(Dropped)));
}

void perfbench::reportExprCounters(Report &R) {
  granlog::ExprInterner::Counters C =
      granlog::ExprInterner::global().counters();
  uint64_t Lookups = C.InternHits + C.InternMisses;
  R.metric("expr.arena_nodes", static_cast<double>(C.ArenaNodes), "count");
  R.metric("expr.arena_bytes", static_cast<double>(C.ArenaBytes), "bytes");
  R.metric("expr.symbols", static_cast<double>(C.SymbolCount), "count");
  R.metric("expr.intern_hit_ratio",
           Lookups ? static_cast<double>(C.InternHits) /
                         static_cast<double>(Lookups)
                   : 0,
           "ratio");
}

void perfbench::reportTrace(
    Report &R, const std::vector<std::pair<std::string, double>> &Layers,
    double TracedWall, double Overhead) {
  double Timed = 0;
  std::string Line = "layer shares of the traced wall time:";
  for (const auto &[Name, Seconds] : Layers) {
    Timed += Seconds;
    Line += format(" %s %.1f%%,", Name.c_str(), 100 * Seconds / TracedWall);
  }
  double Unaccounted = 1 - Timed / TracedWall;
  R.note(Line + format(" outside every timer %.1f%%", 100 * Unaccounted));
  R.note(format("trace.overhead %.4f (traced wall / untraced wall - 1)",
                Overhead));
  R.metric("trace.overhead", Overhead, "ratio");
  R.metric("trace.unaccounted_share", Unaccounted, "ratio");
}

namespace {

bool parseNumber(std::string_view S, uint64_t &Out) {
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && End == S.data() + S.size();
}

unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  return static_cast<unsigned>(CPU_COUNT(&Set));
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload=paper|batch|session|churn "
                       "--seed=N --seconds=S --trace=0|1 --tmp=DIR "
                       "[--granlogd=BIN]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  // A daemon that goes away mid-write is a failed request, not a signal.
  std::signal(SIGPIPE, SIG_IGN);

  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    size_t Eq = Arg.find('=');
    if (Eq == std::string_view::npos)
      return usage();
    std::string_view Key = Arg.substr(0, Eq), Value = Arg.substr(Eq + 1);
    uint64_t N = 0;
    if (Key == "--workload")
      O.Workload = Value;
    else if (Key == "--seed" && parseNumber(Value, N))
      O.Seed = N;
    else if (Key == "--seconds" && parseNumber(Value, N) && N > 0)
      O.Seconds = static_cast<double>(N);
    else if (Key == "--trace" && (Value == "0" || Value == "1"))
      O.Trace = Value == "1";
    else if (Key == "--granlogd")
      O.Granlogd = Value;
    else if (Key == "--tmp")
      O.TmpDir = Value;
    else
      return usage();
  }
  bool Server = O.Workload == "session" || O.Workload == "churn";
  if (O.TmpDir.empty() || (Server && O.Granlogd.empty()) ||
      !(Server || O.Workload == "paper" || O.Workload == "batch"))
    return usage();
  O.Threads = std::clamp(usableCpus(), 1u, 4u);

  Report R;
  if (O.Workload == "paper")
    runPaper(O, R);
  else if (O.Workload == "batch")
    runBatch(O, R);
  else
    runServer(O, R, O.Workload == "churn");
  R.print();
  return 0;
}
