//===- perfbench/batch.cpp - The batch workload ---------------------------===//
//
// Part of GranLog's repository benchmark; see perfbench/README.md.
//
// Compile-time throughput: a seeded generated corpus analyzed again and
// again through analyzeCorpusBatch, with a shared solver cache, on
// Options::Threads in-process threads and the classic
// GranularityAnalyzer::run() driver.  The threads share the expression
// arena, the interner and the solver-cache locks.
//
// Nothing here calls GranularityAnalyzer::prepare(): it switches run() to
// the planned driver, which measured about 2x slower per program on one
// thread (2.1-2.5k against 4.9-5.1k programs/s on 5,000 generated
// programs), so a harness that called it to split phases would measure a
// different program.  The traced run builds CallGraph, ModeTable and
// Determinacy standalone instead.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "analysis/Determinacy.h"
#include "analysis/Modes.h"
#include "corpus/ShardRunner.h"
#include "diffeq/SolverCache.h"
#include "program/CallGraph.h"
#include "size/Measures.h"
#include "support/Io.h"
#include "support/Json.h"
#include "support/Tracer.h"

#include <cmath>
#include <memory>

using namespace granlog;
using namespace perfbench;

namespace {

constexpr size_t CorpusSize = 2000;
/// Programs checked against the interpreter after the timed window.
constexpr unsigned SampleSize = 32;
/// Programs per tracer in the traced replay; keeps every ring unwrapped.
constexpr size_t TraceChunk = 256;

struct Corpus {
  std::vector<GeneratedProgram> Programs;
  std::vector<BenchmarkDef> Defs;     ///< views of Programs
  std::vector<uint64_t> Fingerprints; ///< of the set-up batch
};

BatchConfig batchConfig(const Corpus &C, unsigned Jobs) {
  BatchConfig BC;
  BC.Corpus = &C.Defs;
  BC.Jobs = Jobs;
  return BC;
}

/// Set-up: generate the corpus and analyze it once, which fixes the
/// fingerprints every later repetition must reproduce.
std::unique_ptr<Corpus> setUp(uint64_t Seed, unsigned Jobs) {
  auto C = std::make_unique<Corpus>();
  C->Programs = generateCorpus({Seed, CorpusSize});
  C->Defs = generatedBenchmarks(C->Programs);
  BatchResult B = analyzeCorpusBatch(batchConfig(*C, Jobs));
  for (const BatchAnalysis &A : B.Results)
    C->Fingerprints.push_back(A.Ok ? reportFingerprint(A) : 0);
  return C;
}

/// Checks a batch against the set-up one; returns per-program latency, ms.
std::vector<double> checkBatch(const Corpus &C, const BatchResult &B,
                               Report &R) {
  std::vector<double> Ms;
  for (size_t I = 0; I != B.Results.size(); ++I) {
    const BatchAnalysis &A = B.Results[I];
    R.attempt();
    Ms.push_back(A.Seconds * 1e3);
    if (!A.Ok)
      R.fail(A.Name + ": " + A.Error);
    else if (reportFingerprint(A) != C.Fingerprints[I])
      R.fail(A.Name + ": report fingerprint differs from the set-up batch");
  }
  return Ms;
}

/// The rule of tests/differential_test.cpp on a seeded sample: the
/// resolutions the interpreter measures on a generated goal never exceed
/// the entry predicate's static upper bound at the goal's input sizes.
/// Unbounded or unmeasurable programs are exempt but counted, and at
/// least half the sample must be checkable.
void differentialSample(const Corpus &C, uint64_t Seed, Report &R) {
  uint64_t State = Seed ^ 0xd1ffULL;
  unsigned Checked = 0, Exempt = 0;
  for (unsigned S = 0; S != SampleSize; ++S) {
    const GeneratedProgram &G =
        C.Programs[splitmix64(State) % C.Programs.size()];
    R.attempt();
    TermArena Arena;
    Diagnostics Diags;
    std::optional<Program> P = loadProgram(G.Source, Arena, Diags);
    if (!P) {
      R.fail(G.Name + ": load failed");
      continue;
    }
    GranularityAnalyzer GA(*P, {CostMetric::resolutions(), 48.0});
    GA.run();
    const Term *Goal = buildGeneratedGoal(G, Arena, G.DefaultInput);
    InterpOptions IO;
    IO.CaptureTree = false;
    Interpreter Interp(*P, Arena, IO);
    Symbol Sym = Arena.symbols().lookup(G.EntryPred);
    if (!Interp.solve(Goal) || !Sym.isValid()) {
      R.fail(G.Name + ": the generated goal did not run");
      continue;
    }
    auto Actual = static_cast<double>(Interp.counters().Resolutions);
    Functor F{Sym, G.EntryArity};
    const PredicateSizeInfo &SI = GA.sizes().info(F);
    const StructTerm *GT = cast<StructTerm>(deref(Goal));
    std::vector<double> Sizes;
    bool Unmeasured = false;
    for (unsigned Pos : GA.modes().inputPositions(F)) {
      MeasureKind M = Pos < SI.Measures.size() ? SI.Measures[Pos]
                                               : MeasureKind::TermSize;
      std::optional<int64_t> Size =
          groundSize(GT->arg(Pos), M, Arena.symbols());
      Unmeasured = Unmeasured || !Size;
      Sizes.push_back(Size ? static_cast<double>(*Size) : 0.0);
    }
    std::optional<double> Bound = GA.costs().costAt(F, Sizes);
    if (Unmeasured || !Bound || !std::isfinite(*Bound)) {
      ++Exempt;
      continue;
    }
    ++Checked;
    if (Actual > *Bound * (1 + 1e-9) + 1e-6)
      R.fail(G.Name + format(": measured %.0f resolutions exceed the static "
                             "bound %.6g",
                             Actual, *Bound));
  }
  R.note(format("differential sample: %u programs checked, %u exempt",
                Checked, Exempt));
  if (Checked < SampleSize / 2)
    R.fail(format("differential sample: only %u of %u programs checkable",
                  Checked, SampleSize));
}

void batchTraced(const Options &O, const Corpus &C, Report &R) {
  // Untraced one-thread batches for half the run: the baseline of
  // trace.overhead and the one-thread program p50.
  std::vector<double> OneMs;
  double OneWall = 0;
  unsigned Passes = 0;
  Clock::time_point Start = Clock::now();
  do {
    BatchResult One = analyzeCorpusBatch(batchConfig(C, 1));
    std::vector<double> Ms = checkBatch(C, One, R);
    OneMs.insert(OneMs.end(), Ms.begin(), Ms.end());
    OneWall += One.WallSeconds;
    ++Passes;
  } while (secondsSince(Start) < O.Seconds / 2);
  BatchResult Many = analyzeCorpusBatch(batchConfig(C, O.Threads));
  std::vector<double> ManyMs = checkBatch(C, Many, R);
  double Busy = 0;
  for (double Ms : ManyMs)
    Busy += Ms / 1e3;

  // The traced replay: analyzeOne (corpus/Harness.cpp) step by step on one
  // thread, each pass with a fresh shared cache and a tracer attached.
  double Load = 0, Build = 0, Run = 0, Render = 0, Traced = 0;
  SpanTotals Spans;
  for (unsigned P = 0; P != Passes; ++P) {
    SolverCache Shared;
    // Kept for the whole pass, as analyzeCorpusBatch keeps its results.
    std::vector<BatchAnalysis> Results(C.Defs.size());
    for (size_t Begin = 0; Begin < C.Defs.size(); Begin += TraceChunk) {
      Tracer T(size_t(1) << 17);
      Clock::time_point ChunkStart = Clock::now();
      for (size_t I = Begin; I != std::min(Begin + TraceChunk, C.Defs.size());
           ++I) {
        R.attempt();
        TermArena Arena;
        Diagnostics Diags;
        std::optional<Program> Prog = timed(
            Load, [&] { return loadProgram(C.Defs[I].Source, Arena, Diags); });
        if (!Prog) {
          R.fail(C.Defs[I].Name + ": load failed");
          continue;
        }
        timed(Build, [&] {
          CallGraph CG(*Prog);
          ModeTable Modes(*Prog, CG);
          Determinacy Det(*Prog, Modes);
        });
        StatsRegistry Stats;
        AnalyzerOptions AO{CostMetric::resolutions(), 48.0};
        AO.Cache = &Shared;
        AO.Stats = &Stats;
        AO.Trace = &T;
        GranularityAnalyzer GA(*Prog, AO);
        timed(Run, [&] { GA.run(); });
        BatchAnalysis &A = Results[I];
        timed(Render, [&] {
          A.Report = GA.report();
          A.ExplainAll = GA.explainAll();
          JsonWriter W;
          GA.writeJson(W);
          A.StatsJson = W.take();
        });
        if (reportFingerprint(A) != C.Fingerprints[I])
          R.fail(C.Defs[I].Name +
                 ": the traced replay's fingerprint differs from the batch's");
      }
      Traced += secondsSince(ChunkStart);
      Spans.add(T);
    }
  }

  double N = Passes;
  R.note(format("batch traced run: %u untraced one-thread passes, one "
                "%u-thread pass, %u traced one-thread passes",
                Passes, O.Threads, Passes));
  R.metric("reader.load_s", Load / N, "s");
  R.metric("reader.programs", static_cast<double>(C.Defs.size()), "count");
  R.metric("analysis.build_s", Build / N, "s");
  R.metric("core.run_s", Run / N, "s");
  R.metric("core.report_s", Render / N, "s");
  R.metric("corpus.busy_ratio", Busy / (O.Threads * Many.WallSeconds),
           "ratio");
  R.metric("corpus.p50_inflation",
           percentile(ManyMs, 0.5) / percentile(OneMs, 0.5), "ratio");
  Spans.report(R, N);
  reportExprCounters(R);
  // The standalone builds are extra work the untraced batch does not do,
  // so trace.overhead leaves them out.
  reportTrace(R,
              {{"reader", Load},
               {"analysis (standalone)", Build},
               {"core.run", Run},
               {"core.report", Render}},
              Traced, (Traced - Build) / OneWall - 1);
}

} // namespace

void perfbench::runBatch(const Options &O, Report &R) {
  std::unique_ptr<Corpus> C;
  std::vector<double> SetUp;
  for (int I = 0; I != 3; ++I) {
    Clock::time_point Start = Clock::now();
    C = setUp(O.Seed, O.Threads);
    SetUp.push_back(secondsSince(Start));
  }
  std::string Fingerprints;
  for (uint64_t F : C->Fingerprints)
    Fingerprints += hex64(F);
  R.note(format("batch: %zu generated programs (seed %llu) on %u threads; "
                "corpus fingerprint %s over the per-program "
                "reportFingerprint values",
                C->Defs.size(), static_cast<unsigned long long>(O.Seed),
                O.Threads, hex64(fnv1a64(Fingerprints)).c_str()));
  if (O.Trace)
    return batchTraced(O, *C, R);

  // One slice per repetition of the corpus.
  std::vector<Slice> Slices;
  Clock::time_point Start = Clock::now();
  do {
    Slice &S = Slices.emplace_back();
    Clock::time_point RepStart = Clock::now();
    BatchResult B = analyzeCorpusBatch(batchConfig(*C, O.Threads));
    S.Seconds = secondsSince(RepStart);
    S.LatencyMs = checkBatch(*C, B, R);
    S.Ops = static_cast<double>(S.LatencyMs.size());
  } while (secondsSince(Start) < O.Seconds);
  double Rss = peakRssMb();

  R.note(format("%zu repetitions; every fingerprint matched the set-up batch "
                "unless a failure is listed",
                Slices.size()));
  differentialSample(*C, O.Seed, R);
  reportEndToEnd(R, "program", SetUp, Slices, Rss);
  reportSim(paperPass(R), R);
}
