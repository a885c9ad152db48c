//===- perfbench/paper.cpp - The paper workload ---------------------------===//
//
// Part of GranLog's repository benchmark; see perfbench/README.md.
//
// One pass is the paper's own evaluation, 42 runBenchmark experiments:
// Table 1 (12 programs on ROLOG), Table 2 (4 programs on &-Prolog) and
// the two Figure 2 threshold sweeps (fib(15) x 14 values of K,
// quick_sort(75) x 12).  Each experiment loads, analyzes and transforms
// its program, interprets T0 and T1 and simulates both: the only workload
// where the interpreter and the simulator do most of the work.  The
// inputs are the paper's and fixed; the seed does not change them.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "corpus/Harness.h"
#include "support/Tracer.h"

#include <cmath>
#include <limits>
#include <map>

using namespace granlog;
using namespace perfbench;

namespace {

enum class Group { Table1, Table2, SweepFib, SweepQuickSort };

struct Experiment {
  const BenchmarkDef *B;
  int Input;
  HarnessConfig Config;
  Group G;
};

std::vector<Experiment> paperExperiments() {
  HarnessConfig Rolog;
  Rolog.Machine = MachineConfig::rolog();
  HarnessConfig AndProlog;
  AndProlog.Machine = MachineConfig::andProlog();

  std::vector<Experiment> E;
  for (const BenchmarkDef &B : benchmarkCorpus())
    E.push_back({&B, B.DefaultInput, Rolog, Group::Table1});
  for (const BenchmarkDef *B : table2Benchmarks())
    E.push_back({B, B->DefaultInput, AndProlog, Group::Table2});
  // The K values of bench/fig2_grainsize.
  auto Sweep = [&](const char *Name, int Input, std::vector<int64_t> Ks,
                   Group G) {
    for (int64_t K : Ks) {
      HarnessConfig C = Rolog;
      C.ThresholdOverride = K;
      E.push_back({findBenchmark(Name), Input, C, G});
    }
  };
  Sweep("fib", 15, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15},
        Group::SweepFib);
  Sweep("quick_sort", 75, {0, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 75},
        Group::SweepQuickSort);
  return E;
}

std::string label(const Experiment &X) {
  std::string L = X.B->label(X.Input) + " on " + X.Config.Machine.Name;
  if (X.Config.ThresholdOverride >= 0)
    L += " K=" + std::to_string(X.Config.ThresholdOverride);
  return L;
}

using Reference = std::map<std::pair<std::string, int>, uint64_t>;

/// The independent reference: the resolutions the interpreter alone
/// counts for each uncontrolled program and input, with no analysis and
/// no transformation involved.
Reference referenceResolutions(const std::vector<Experiment> &E) {
  Reference Ref;
  for (const Experiment &X : E) {
    auto Key = std::make_pair(X.B->Name, X.Input);
    if (Ref.count(Key))
      continue;
    TermArena Arena;
    Diagnostics Diags;
    std::optional<Program> P = loadProgram(X.B->Source, Arena, Diags);
    uint64_t Resolutions = 0; // no reference: the experiment fails
    if (P) {
      InterpOptions IO;
      IO.CaptureTree = false;
      Interpreter I(*P, Arena, IO);
      if (I.solve(X.B->BuildGoal(Arena, X.Input)))
        Resolutions = I.counters().Resolutions;
    }
    Ref[Key] = Resolutions;
  }
  return Ref;
}

/// Both runs succeed, T0 counts the reference's resolutions and T1 the
/// same: granularity control must not change what is computed.
void check(const Experiment &X, const BenchmarkRun &Run, const Reference &Ref,
           Report &R) {
  R.attempt();
  uint64_t Expected = Ref.at({X.B->Name, X.Input});
  if (!Run.Ok0 || !Run.Ok1)
    R.fail(label(X) + ": run failed");
  else if (Expected == 0 || Run.Counters0.Resolutions != Expected)
    R.fail(label(X) + ": T0 resolutions differ from the interpreter "
                      "reference");
  else if (Run.Counters1.Resolutions != Run.Counters0.Resolutions)
    R.fail(label(X) + ": T1 resolutions differ from T0");
}

SimRatios simRatios(const std::vector<Experiment> &E,
                    const std::vector<BenchmarkRun> &Runs) {
  std::vector<double> Rolog, AndProlog;
  double StaticFib = 0, StaticQuickSort = 0;
  double BestFib = std::numeric_limits<double>::infinity();
  double BestQuickSort = BestFib;
  for (size_t I = 0; I != E.size(); ++I) {
    double T0 = Runs[I].Sim0.ParallelTime, T1 = Runs[I].Sim1.ParallelTime;
    switch (E[I].G) {
    case Group::Table1:
      Rolog.push_back(T1 / T0);
      // The sweeps' static thresholds are these Table 1 rows.
      if (E[I].B->Name == "fib")
        StaticFib = T1;
      else if (E[I].B->Name == "quick_sort")
        StaticQuickSort = T1;
      break;
    case Group::Table2:
      AndProlog.push_back(T1 / T0);
      break;
    case Group::SweepFib:
      BestFib = std::min(BestFib, T1);
      break;
    case Group::SweepQuickSort:
      BestQuickSort = std::min(BestQuickSort, T1);
      break;
    }
  }
  return {geomean(Rolog), geomean(AndProlog),
          std::sqrt(StaticFib / BestFib * StaticQuickSort / BestQuickSort)};
}

/// Outside-in layer timers of the traced replay, summed over passes.
struct PaperLayers {
  double Load = 0, Run = 0, Render = 0, Transform = 0, Solve = 0,
         Simulate = 0;
  double Programs = 0, Resolutions = 0, TasksT0 = 0, TasksT1 = 0,
         OverheadT1 = 0;
};

/// runBenchmark (corpus/Harness.cpp) step by step, with a timer around
/// each public call and the tracer attached to the analyzer.  Goal
/// building and cost-tree teardown stay outside every timer.
BenchmarkRun tracedExperiment(const Experiment &X, Tracer &T,
                              PaperLayers &L) {
  BenchmarkRun Run;
  TermArena Arena;
  Diagnostics Diags;
  ++L.Programs;
  std::optional<Program> P0 = timed(
      L.Load, [&] { return loadProgram(X.B->Source, Arena, Diags); });
  if (!P0)
    return Run;
  AnalyzerOptions AO{X.Config.Metric, X.Config.effectiveW()};
  AO.Trace = &T;
  GranularityAnalyzer GA(*P0, AO);
  timed(L.Run, [&] {
    GA.run();
    if (X.Config.ThresholdOverride >= 0)
      GA.overrideThresholds(X.Config.ThresholdOverride);
  });
  Run.AnalysisReport = timed(L.Render, [&] { return GA.report(); });
  Program P1 = timed(L.Transform, [&] {
    return applyGranularityControl(*P0, GA, &Run.Stats, X.Config.Transform);
  });
  InterpOptions IO = interpOptionsFor(X.Config.Machine);
  auto Execute = [&](const Program &P, bool &Ok, InterpCounters &C,
                     SimResult &S) {
    Interpreter I(P, Arena, IO);
    const Term *Goal = X.B->BuildGoal(Arena, X.Input);
    Ok = timed(L.Solve, [&] { return I.solve(Goal); });
    C = I.counters();
    L.Resolutions += static_cast<double>(C.Resolutions);
    std::unique_ptr<CostNode> Tree = I.takeTree();
    if (Tree)
      S = timed(L.Simulate,
                [&] { return simulate(*Tree, X.Config.Machine); });
  };
  Execute(*P0, Run.Ok0, Run.Counters0, Run.Sim0);
  Execute(P1, Run.Ok1, Run.Counters1, Run.Sim1);
  L.TasksT0 += Run.Sim0.TasksSpawned;
  L.TasksT1 += Run.Sim1.TasksSpawned;
  L.OverheadT1 += Run.Sim1.OverheadUnits;
  return Run;
}

void paperTraced(const Options &O, const std::vector<Experiment> &E,
                 const Reference &Ref, Report &R) {
  // Untraced passes for half the run: the baseline of trace.overhead, and
  // the first one is what the traced replay must reproduce exactly.
  std::vector<BenchmarkRun> First;
  unsigned Passes = 0;
  Clock::time_point Start = Clock::now();
  do {
    for (const Experiment &X : E) {
      BenchmarkRun Run = runBenchmark(*X.B, X.Input, X.Config);
      check(X, Run, Ref, R);
      if (Passes == 0)
        First.push_back(std::move(Run));
    }
    ++Passes;
  } while (secondsSince(Start) < O.Seconds / 2);
  double Untraced = secondsSince(Start);

  PaperLayers L;
  SpanTotals Spans;
  double Traced = 0;
  for (unsigned P = 0; P != Passes; ++P) {
    Tracer T(size_t(1) << 16);
    Clock::time_point PassStart = Clock::now();
    for (size_t I = 0; I != E.size(); ++I) {
      BenchmarkRun Run = tracedExperiment(E[I], T, L);
      check(E[I], Run, Ref, R);
      if (Run.Sim0.ParallelTime != First[I].Sim0.ParallelTime ||
          Run.Sim1.ParallelTime != First[I].Sim1.ParallelTime)
        R.fail(label(E[I]) + ": the traced replay differs from runBenchmark");
    }
    Traced += secondsSince(PassStart);
    Spans.add(T);
  }

  double N = Passes;
  R.note(format("paper traced run: %u untraced and %u traced passes of %zu "
                "experiments",
                Passes, Passes, E.size()));
  R.metric("reader.load_s", L.Load / N, "s");
  R.metric("reader.programs", L.Programs / N, "count");
  R.metric("core.run_s", L.Run / N, "s");
  R.metric("core.report_s", L.Render / N, "s");
  R.metric("core.transform_s", L.Transform / N, "s");
  R.metric("interp.solve_s", L.Solve / N, "s");
  R.metric("interp.resolutions", L.Resolutions / N, "count");
  R.metric("interp.resolutions_per_s", L.Resolutions / L.Solve, "1/s");
  R.metric("runtime.simulate_s", L.Simulate / N, "s");
  R.metric("runtime.tasks_spawned_t0", L.TasksT0 / N, "count");
  R.metric("runtime.tasks_spawned_t1", L.TasksT1 / N, "count");
  R.metric("runtime.overhead_units_t1", L.OverheadT1 / N, "units");
  Spans.report(R, N);
  reportExprCounters(R);
  reportTrace(R,
              {{"reader", L.Load},
               {"core.run", L.Run},
               {"core.report", L.Render},
               {"core.transform", L.Transform},
               {"interp", L.Solve},
               {"runtime", L.Simulate}},
              Traced, Traced / Untraced - 1);
}

} // namespace

SimRatios perfbench::paperPass(Report &R) {
  std::vector<Experiment> E = paperExperiments();
  Reference Ref = referenceResolutions(E);
  std::vector<BenchmarkRun> Runs;
  for (const Experiment &X : E) {
    Runs.push_back(runBenchmark(*X.B, X.Input, X.Config));
    check(X, Runs.back(), Ref, R);
  }
  return simRatios(E, Runs);
}

void perfbench::reportSim(const SimRatios &S, Report &R) {
  R.metric("sim_t1_over_t0_rolog", S.Rolog, "ratio");
  R.metric("sim_t1_over_t0_andprolog", S.AndProlog, "ratio");
  R.metric("sim_static_k_over_best", S.StaticK, "ratio");
  R.note(format("sim_t1_over_t0_rolog %.4f, sim_t1_over_t0_andprolog %.4f, "
                "sim_static_k_over_best %.4f (ratio)",
                S.Rolog, S.AndProlog, S.StaticK));
}

void perfbench::runPaper(const Options &O, Report &R) {
  std::vector<Experiment> E = paperExperiments();
  // Set-up, three times: the interpreter-only reference.
  std::vector<double> SetUp;
  Reference Ref;
  for (int I = 0; I != 3; ++I) {
    Clock::time_point Start = Clock::now();
    Ref = referenceResolutions(E);
    SetUp.push_back(secondsSince(Start));
  }
  if (O.Trace)
    return paperTraced(O, E, Ref, R);

  // One slice per pass.
  std::vector<Slice> Slices;
  SimRatios Sim;
  Clock::time_point Start = Clock::now();
  do {
    Slice &S = Slices.emplace_back();
    Clock::time_point PassStart = Clock::now();
    std::vector<BenchmarkRun> Runs;
    for (const Experiment &X : E) {
      Clock::time_point T0 = Clock::now();
      Runs.push_back(runBenchmark(*X.B, X.Input, X.Config));
      S.LatencyMs.push_back(secondsSince(T0) * 1e3);
      check(X, Runs.back(), Ref, R);
    }
    S.Ops = static_cast<double>(E.size());
    S.Seconds = secondsSince(PassStart);
    SimRatios Ratios = simRatios(E, Runs);
    if (Slices.size() == 1)
      Sim = Ratios;
    else if (Ratios != Sim)
      R.fail("the simulated times changed between passes");
  } while (secondsSince(Start) < O.Seconds);

  R.note(format("paper: %zu passes of %zu experiments (fixed inputs); the "
                "experiments differ in size by design, so the latency "
                "percentiles describe that fixed mix",
                Slices.size(), E.size()));
  reportEndToEnd(R, "experiment", SetUp, Slices, peakRssMb());
  reportSim(Sim, R);
}
