//===- perfbench/server.cpp - The session and churn workloads -------------===//
//
// Part of GranLog's repository benchmark; see perfbench/README.md.
//
// Both workloads drive a freshly spawned granlogd from this one process,
// closed loop: Options::Threads / 2 connections, each sending its next
// request only after the previous response arrived, against a daemon with
// as many workers.  One script is
//
//   hello <name>, update rev0, update rev1, update rev0, explain "",
//   only <entry>/<arity> rev0, close
//
// where rev0 is generated program n and rev1 is rev0 plus one more
// generated program, chosen by the seed.  Connection c owns the names
// n = c (mod connections) and cycles through them in a seeded order, so
// no name is ever claimed by two live connections.
//
//   session  The session cap is above the name pool: nothing is evicted,
//            and repeated scripts re-use their sessions' SCCs (the editor
//            path: protocol, planned driver, incremental reuse).
//   churn    The name pool is 32 times the session cap, so every
//            script's first update admits a session and evicts the least
//            recently used one.  The cap is three times the connection
//            count, so only the sessions of disconnected clients are
//            evicted.
//
// The traced run also replays scripts in-process through
// SessionManager::lease and AnalysisSession::update with the daemon's
// configuration, with a timer around each call.  For churn one more
// replay runs on a fresh cache root, so evictions flush solver caches to
// disk and admissions re-warm from it.  The churn daemon itself gets no
// --cache-root: on the ext4 disk this was tuned on, the flush of every
// evicted session (temp file + rename over the old one) made throughput
// swing by up to 40% between identical runs, more than any bound allows.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "core/AnalysisSession.h"
#include "program/Generator.h"
#include "server/Protocol.h"
#include "server/SessionManager.h"
#include "support/Tracer.h"

#include <array>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace granlog;
using namespace perfbench;

namespace {

/// How a workload sizes the daemon.
struct Shape {
  size_t Pool;        ///< client names, one script each
  size_t MaxSessions; ///< granlogd --max-sessions
  bool DiskReplay;    ///< the traced run adds a replay on a cache root
  bool WarmUp;        ///< set-up runs every name's script once
};

Shape shapeFor(bool Churn, unsigned Connections) {
  size_t C = Connections;
  if (Churn)
    return {96 * C, 3 * C, true, false};
  return {128 * C, 128 * C + 16, false, true};
}

/// One in-process replay runs ReplayCycles passes over the first
/// ReplayNames names of every connection.
constexpr unsigned ReplayCycles = 3;
constexpr size_t ReplayNames = 16;

/// Per-thread span ring of the traced replay.  The planned driver runs
/// every update on a fresh pool thread and each thread gets its own ring,
/// so the ring stays small.
constexpr size_t ReplayRing = size_t(1) << 9;

/// One client's edit script and the bodies a direct AnalysisSession
/// replay of it produced during set-up.
struct Script {
  std::string Name, Rev0, Rev1, OnlySpec;
  std::string Report0, Report1, Explain;
};

std::string directUpdate(AnalysisSession &S, const std::string &Source) {
  TermArena Arena;
  Diagnostics Diags;
  std::optional<Program> P = loadProgram(Source, Arena, Diags);
  return P ? S.update(*P).Report : std::string();
}

/// The scripts of names 0..Pool-1.  The program population is fixed
/// (programs 0..2*Pool-1 of generator seed 1), so every seed measures the
/// same work: the seed picks which program each rev1 adds, and namesFor
/// the order in which each connection visits its names.
std::vector<Script> makeScripts(uint64_t Seed, size_t Pool) {
  constexpr uint64_t ProgramSeed = 1;
  uint64_t State = Seed;
  size_t Offset = splitmix64(State) % Pool;
  std::vector<Script> Scripts(Pool);
  for (size_t N = 0; N != Pool; ++N) {
    GeneratedProgram G0 =
        generateProgram(ProgramSeed, static_cast<unsigned>(N));
    GeneratedProgram G1 = generateProgram(
        ProgramSeed, static_cast<unsigned>(Pool + (N + Offset) % Pool));
    Script &S = Scripts[N];
    S.Name = "bench" + std::to_string(N);
    S.Rev0 = G0.Source;
    S.Rev1 = G0.Source + "\n" + G1.Source;
    S.OnlySpec = G0.EntryPred + "/" + std::to_string(G0.EntryArity);
    // The daemon runs its sessions on the default options too.
    AnalysisSession Direct{SessionOptions()};
    S.Report0 = directUpdate(Direct, S.Rev0);
    S.Report1 = directUpdate(Direct, S.Rev1);
    directUpdate(Direct, S.Rev0);
    S.Explain = Direct.last().ExplainAll;
  }
  return Scripts;
}

/// Connection \p C's names (n = C mod Connections) in a seeded order.
std::vector<size_t> namesFor(unsigned C, unsigned Connections, size_t Pool,
                             uint64_t Seed) {
  std::vector<size_t> Names;
  for (size_t N = C; N < Pool; N += Connections)
    Names.push_back(N);
  uint64_t State = Seed ^ (uint64_t(C) << 32);
  for (size_t I = Names.size(); I > 1; --I)
    std::swap(Names[I - 1], Names[splitmix64(State) % I]);
  return Names;
}

int connectSocket(const std::string &Path) {
  sockaddr_un Addr{};
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0)
    return Fd;
  ::close(Fd);
  return -1;
}

bool sendAll(int Fd, std::string_view Data) {
  while (!Data.empty()) {
    ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// Blocks for one response frame; nullopt on EOF, timeout or bad framing.
std::optional<Response> recvResponse(int Fd, FrameReader &Reader) {
  while (true) {
    if (std::optional<std::string> Payload = Reader.next())
      return decodeResponse(*Payload);
    if (Reader.overflowed())
      return std::nullopt;
    char Buf[65536];
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return std::nullopt;
    Reader.append(Buf, static_cast<size_t>(N));
  }
}

/// A granlogd child process.  stop() SIGTERMs it (granlogd drains and
/// flushes every session) and reaps it; the destructor does the same.
class Daemon {
public:
  Daemon(const std::string &Bin, std::vector<std::string> Args) {
    Args.insert(Args.begin(), Bin);
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    int DevNull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    Pid = ::fork();
    if (Pid == 0) {
      // The harness's stdout ends with the result line: keep off it.
      if (DevNull >= 0)
        ::dup2(DevNull, STDOUT_FILENO);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    if (DevNull >= 0)
      ::close(DevNull);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  pid_t pid() const { return Pid; }

  /// Polls until \p Socket accepts a connection; false once the daemon
  /// exited or \p TimeoutS passed.
  bool waitForBind(const std::string &Socket, double TimeoutS) {
    Clock::time_point Start = Clock::now();
    while (Pid > 0 && secondsSince(Start) < TimeoutS) {
      if (int Fd = connectSocket(Socket); Fd >= 0) {
        ::close(Fd);
        return true;
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
  }

  /// The daemon's exit code; -1 when it was not running.
  int stop() {
    if (Pid <= 0)
      return -1;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
    }
    Pid = -1;
    return WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  }

private:
  pid_t Pid = -1;
};

/// A spawned daemon and its socket under Options::TmpDir.
struct DaemonRun {
  std::string Socket;
  std::unique_ptr<Daemon> D;

  /// Stops the daemon and removes its socket; returns its exit code.
  int shutDown() {
    int Exit = D ? D->stop() : -1;
    std::error_code Ec;
    std::filesystem::remove(Socket, Ec);
    return Exit;
  }
};

DaemonRun spawn(const Options &O, const Shape &Sh, unsigned Index) {
  DaemonRun Run;
  Run.Socket = O.TmpDir + "/g" + std::to_string(Index) + ".sock";
  std::vector<std::string> Args{
      "--socket=" + Run.Socket, "--workers=" + std::to_string(O.Threads),
      "--max-sessions=" + std::to_string(Sh.MaxSessions)};
  Run.D = std::make_unique<Daemon>(O.Granlogd, std::move(Args));
  return Run;
}

/// Joins a scope's threads, on the exception path too.
class JoinAll {
public:
  explicit JoinAll(std::vector<std::thread> &Threads) : Threads(Threads) {}
  ~JoinAll() {
    for (std::thread &T : Threads)
      if (T.joinable())
        T.join();
  }
  JoinAll(const JoinAll &) = delete;
  JoinAll &operator=(const JoinAll &) = delete;

private:
  std::vector<std::thread> &Threads;
};

/// Runs \p Fn(C) for every connection C on a thread of its own and waits
/// for all of them.
template <typename F> void onEachConnection(size_t Connections, F Fn) {
  std::vector<std::thread> Threads;
  JoinAll Join(Threads);
  for (size_t C = 0; C != Connections; ++C)
    Threads.emplace_back([&Fn, C] { Fn(C); });
}

/// What one connection observed.
struct ClientStats {
  std::array<std::vector<double>, 7> Ms; ///< latency by Op value
  /// Every answered request: when it completed (seconds from the load's
  /// start) and its latency.
  std::vector<double> EndS, LatencyMs;
  uint64_t Requests = 0;
  std::vector<std::string> Failures;
  double End = 0; ///< seconds from the load's start to its last response
};

const char *opName(Op K) {
  switch (K) {
  case Op::Hello:
    return "hello";
  case Op::Update:
    return "update";
  case Op::Explain:
    return "explain";
  case Op::Only:
    return "only";
  case Op::Stats:
    return "stats";
  case Op::Close:
    return "close";
  }
  return "?";
}

Request request(Op Kind, std::string Name, std::string Pred,
                std::string Source) {
  Request R;
  R.Kind = Kind;
  R.Name = std::move(Name);
  R.Pred = std::move(Pred);
  R.Source = std::move(Source);
  return R;
}

/// Runs one script over a fresh connection; a failed request ends it.
void runScript(const std::string &Socket, const Script &S,
               Clock::time_point LoadStart, ClientStats &Out) {
  int Fd = connectSocket(Socket);
  if (Fd < 0) {
    ++Out.Requests;
    Out.Failures.push_back(S.Name + ": connect failed");
    return;
  }
  timeval Timeout{30, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  FrameReader Reader;
  uint32_t Id = 0;
  auto Exchange = [&](Request Req, const std::string *Expect) {
    Req.Id = ++Id;
    ++Out.Requests;
    Clock::time_point Start = Clock::now();
    std::optional<Response> Resp;
    if (sendAll(Fd, encodeRequest(Req)))
      Resp = recvResponse(Fd, Reader);
    double Ms = secondsSince(Start) * 1e3;
    auto Fail = [&](const std::string &Why) {
      Out.Failures.push_back(S.Name + " " + opName(Req.Kind) + ": " + Why);
      return false;
    };
    if (!Resp)
      return Fail("connection lost");
    if (Resp->St != Status::Ok)
      return Fail(statusName(Resp->St));
    Out.Ms[static_cast<size_t>(Req.Kind)].push_back(Ms);
    Out.EndS.push_back(secondsSince(LoadStart));
    Out.LatencyMs.push_back(Ms);
    if (Expect && Resp->Body != *Expect)
      Fail("body differs from the direct replay");
    return true;
  };
  bool Done =
      Exchange(request(Op::Hello, S.Name, "", ""), nullptr) &&
      Exchange(request(Op::Update, "", "", S.Rev0), &S.Report0) &&
      Exchange(request(Op::Update, "", "", S.Rev1), &S.Report1) &&
      Exchange(request(Op::Update, "", "", S.Rev0), &S.Report0) &&
      Exchange(request(Op::Explain, "", "", ""), &S.Explain) &&
      Exchange(request(Op::Only, "", S.OnlySpec, S.Rev0), nullptr) &&
      Exchange(request(Op::Close, "", "", ""), nullptr);
  if (Done) {
    // granlogd releases the name when it closes its end; wait for that so
    // the name is free before this connection claims it again.
    char Buf[256];
    ssize_t N;
    while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0 ||
           (N < 0 && errno == EINTR)) {
    }
  }
  ::close(Fd);
}

/// The closed-loop load: every connection runs scripts until \p Seconds
/// have passed, finishing the one it is in.  \p Wall is the time to the
/// last response.
std::vector<ClientStats>
runLoad(const std::string &Socket, const std::vector<Script> &Scripts,
        const std::vector<std::vector<size_t>> &Names, double Seconds,
        double &Wall) {
  std::vector<ClientStats> Stats(Names.size());
  Clock::time_point Start = Clock::now();
  onEachConnection(Names.size(), [&](size_t C) {
    for (size_t I = 0; secondsSince(Start) < Seconds; ++I)
      runScript(Socket, Scripts[Names[C][I % Names[C].size()]], Start,
                Stats[C]);
    Stats[C].End = secondsSince(Start);
  });
  Wall = 0;
  for (const ClientStats &S : Stats)
    Wall = std::max(Wall, S.End);
  return Stats;
}

/// Session set-up: every name's script once, so the timed window sees
/// warm sessions only, whose updates reuse stored SCCs.
void warmUp(const std::string &Socket, const std::vector<Script> &Scripts,
            const std::vector<std::vector<size_t>> &Names, Report &R) {
  std::vector<ClientStats> Stats(Names.size());
  Clock::time_point Start = Clock::now();
  onEachConnection(Names.size(), [&](size_t C) {
    for (size_t N : Names[C])
      runScript(Socket, Scripts[N], Start, Stats[C]);
  });
  for (const ClientStats &S : Stats) {
    R.attempt(S.Requests);
    for (const std::string &F : S.Failures)
      R.fail(F);
  }
}

/// What an in-process replay observed, summed over its threads.
struct Replay {
  std::vector<double> LeaseUs, UpdateUs, UpdateRequestUs;
  double Lease = 0, Release = 0, Load = 0, Update = 0, Explain = 0;
  double Busy = 0; ///< thread time inside the replay loops
  double Wall = 0;
  uint64_t Requests = 0, Programs = 0, TotalSccs = 0, ReusedSccs = 0,
           DiskHits = 0, Admissions = 0, Evictions = 0;
  std::vector<std::string> Failures;

  void merge(const Replay &O) {
    LeaseUs.insert(LeaseUs.end(), O.LeaseUs.begin(), O.LeaseUs.end());
    UpdateUs.insert(UpdateUs.end(), O.UpdateUs.begin(), O.UpdateUs.end());
    UpdateRequestUs.insert(UpdateRequestUs.end(), O.UpdateRequestUs.begin(),
                           O.UpdateRequestUs.end());
    Lease += O.Lease;
    Release += O.Release;
    Load += O.Load;
    Update += O.Update;
    Explain += O.Explain;
    Busy += O.Busy;
    Requests += O.Requests;
    Programs += O.Programs;
    TotalSccs += O.TotalSccs;
    ReusedSccs += O.ReusedSccs;
    DiskHits += O.DiskHits;
    Failures.insert(Failures.end(), O.Failures.begin(), O.Failures.end());
  }
};

/// Replays one connection's scripts the way granlogd's doUpdate and
/// doExplain run them, with a timer around each public call.
void replayConnection(SessionManager &M, const std::vector<Script> &Scripts,
                      const std::vector<size_t> &Names, Replay &Out) {
  Clock::time_point Begin = Clock::now();
  size_t Count = std::min(Names.size(), ReplayNames);
  auto Lease = [&](const std::string &Name) {
    Clock::time_point Start = Clock::now();
    SessionLease L = M.lease(Name);
    double Seconds = secondsSince(Start);
    Out.Lease += Seconds;
    Out.LeaseUs.push_back(Seconds * 1e6);
    return L;
  };
  for (size_t I = 0; I != ReplayCycles * Count; ++I) {
    const Script &S = Scripts[Names[I % Count]];
    for (const auto &[Source, Expect] :
         {std::pair{&S.Rev0, &S.Report0}, std::pair{&S.Rev1, &S.Report1},
          std::pair{&S.Rev0, &S.Report0}}) {
      ++Out.Requests;
      ++Out.Programs;
      Clock::time_point Start = Clock::now();
      std::optional<SessionLease> L;
      L.emplace(Lease(S.Name));
      {
        TermArena Arena;
        Diagnostics Diags;
        std::optional<Program> P =
            timed(Out.Load, [&] { return loadProgram(*Source, Arena, Diags); });
        if (!P) {
          Out.Failures.push_back(S.Name + " update: load failed");
          continue;
        }
        SolverCache &Cache = L->session().solverCache();
        uint64_t Disk = Cache.diskHits();
        Clock::time_point UpdateStart = Clock::now();
        const SessionUpdate &U = L->session().update(*P);
        double Seconds = secondsSince(UpdateStart);
        Out.Update += Seconds;
        Out.UpdateUs.push_back(Seconds * 1e6);
        Out.DiskHits += Cache.diskHits() - Disk;
        Out.TotalSccs += U.TotalSCCs;
        Out.ReusedSccs += U.ReusedSCCs;
        if (U.Report != *Expect)
          Out.Failures.push_back(S.Name +
                                 " update: report differs from the direct "
                                 "replay");
      }
      // Releasing takes the manager's lock, which an admission holds
      // through its disk I/O.
      timed(Out.Release, [&] { L.reset(); });
      Out.UpdateRequestUs.push_back(secondsSince(Start) * 1e6);
    }
    ++Out.Requests;
    std::optional<SessionLease> L;
    L.emplace(Lease(S.Name));
    if (!timed(Out.Explain,
               [&] { return L->session().last().ExplainAll == S.Explain; }))
      Out.Failures.push_back(S.Name +
                             " explain: body differs from the direct replay");
    timed(Out.Release, [&] { L.reset(); });
  }
  Out.Busy = secondsSince(Begin);
}

/// One in-process replay, one thread per connection, configured like the
/// daemon (default session options, the same session cap) plus an
/// optional \p CacheRoot; \p Trace (optional) goes to every session.
Replay replay(const Shape &Sh, const std::vector<Script> &Scripts,
              const std::vector<std::vector<size_t>> &Names,
              const std::string &CacheRoot, Tracer *Trace) {
  SessionManagerConfig Config;
  Config.Template.Trace = Trace;
  Config.MaxSessions = Sh.MaxSessions;
  Config.CacheRoot = CacheRoot;
  std::vector<Replay> PerThread(Names.size());
  Replay All;
  {
    SessionManager M(Config);
    Clock::time_point Start = Clock::now();
    onEachConnection(Names.size(), [&](size_t C) {
      replayConnection(M, Scripts, Names[C], PerThread[C]);
    });
    All.Wall = secondsSince(Start);
    All.Admissions = M.admissions();
    All.Evictions = M.evictions();
  } // destroying the manager flushes the live sessions' caches to disk
  for (const Replay &P : PerThread)
    All.merge(P);
  return All;
}

/// Times SolverCache::loadFromFile and saveToFile on every per-client
/// cache file a churn replay left under \p Root.
void diskCacheMetrics(const std::string &Root, Report &R) {
  std::vector<std::filesystem::path> Files;
  std::error_code Ec;
  for (const auto &E : std::filesystem::recursive_directory_iterator(Root, Ec))
    if (E.is_regular_file() && E.path().filename() == "solver-cache.json")
      Files.push_back(E.path());
  std::vector<double> LoadUs, SaveUs;
  double Bytes = 0;
  for (const std::filesystem::path &F : Files) {
    R.attempt();
    Bytes += static_cast<double>(std::filesystem::file_size(F, Ec));
    SolverCache C;
    std::string Error;
    Clock::time_point Start = Clock::now();
    bool Ok = C.loadFromFile(F.string(), &Error);
    LoadUs.push_back(secondsSince(Start) * 1e6);
    Start = Clock::now();
    Ok = Ok && C.saveToFile(F.string(), &Error);
    SaveUs.push_back(secondsSince(Start) * 1e6);
    if (!Ok)
      R.fail(F.string() + ": " + Error);
  }
  R.note(format("%zu per-client solver-cache files", Files.size()));
  R.metric("diffeq.cache_load_us", percentile(LoadUs, 0.5), "us");
  R.metric("diffeq.cache_save_us", percentile(SaveUs, 0.5), "us");
  R.metric("diffeq.cache_file_bytes",
           Files.empty() ? 0 : Bytes / static_cast<double>(Files.size()),
           "bytes");
}

void serverTraced(const Options &O, const Shape &Sh,
                  const std::vector<Script> &Scripts,
                  const std::vector<std::vector<size_t>> &Names,
                  const std::array<std::vector<double>, 7> &ByOp, Report &R) {
  auto Ms = [&](Op K, double Q) {
    return percentile(ByOp[static_cast<size_t>(K)], Q);
  };
  R.metric("server.hello_p50_ms", Ms(Op::Hello, 0.5), "ms");
  R.metric("server.update_p50_ms", Ms(Op::Update, 0.5), "ms");
  R.metric("server.update_p99_ms", Ms(Op::Update, 0.99), "ms");
  R.metric("server.explain_p50_ms", Ms(Op::Explain, 0.5), "ms");
  R.metric("server.only_p50_ms", Ms(Op::Only, 0.5), "ms");

  // A warm-up replay (it fills this process's expression arena the way
  // the daemon's was), the untraced baseline of trace.overhead, then the
  // traced replay, all configured like the daemon.
  Replay Warm = replay(Sh, Scripts, Names, "", nullptr);
  Replay Untraced = replay(Sh, Scripts, Names, "", nullptr);
  Tracer T(ReplayRing);
  Replay Traced = replay(Sh, Scripts, Names, "", &T);
  std::vector<const Replay *> All{&Warm, &Untraced, &Traced};
  // Churn's disk round trip: one more replay on a fresh cache root, where
  // every eviction flushes a solver cache and every admission re-warms.
  Replay Disk;
  std::string Root = O.TmpDir + "/cache";
  if (Sh.DiskReplay) {
    Disk = replay(Sh, Scripts, Names, Root, nullptr);
    All.push_back(&Disk);
    R.note(format("disk replay: lease p50 %.1f us, p99 %.1f us; update "
                  "request p50 %.1f us",
                  percentile(Disk.LeaseUs, 0.5), percentile(Disk.LeaseUs, 0.99),
                  percentile(Disk.UpdateRequestUs, 0.5)));
  }
  for (const Replay *X : All) {
    R.attempt(X->Requests);
    for (const std::string &F : X->Failures)
      R.fail("replay: " + F);
  }
  SpanTotals Spans;
  Spans.add(T);

  R.note(format("in-process replay: %llu requests on %u threads, %llu "
                "admissions, %llu evictions",
                static_cast<unsigned long long>(Traced.Requests), O.Threads,
                static_cast<unsigned long long>(Traced.Admissions),
                static_cast<unsigned long long>(Traced.Evictions)));
  R.metric("server.lease_p50_us", percentile(Traced.LeaseUs, 0.5), "us");
  R.metric("server.lease_p99_us", percentile(Traced.LeaseUs, 0.99), "us");
  R.metric("server.transport_p50_us",
           Ms(Op::Update, 0.5) * 1e3 - percentile(Traced.UpdateRequestUs, 0.5),
           "us");
  R.metric("server.admissions", static_cast<double>(Traced.Admissions),
           "count");
  R.metric("server.evictions", static_cast<double>(Traced.Evictions),
           "count");
  R.metric("reader.load_s", Traced.Load, "s");
  R.metric("reader.programs", static_cast<double>(Traced.Programs), "count");
  R.metric("core.session_update_p50_us", percentile(Traced.UpdateUs, 0.5),
           "us");
  R.metric("core.session_update_p99_us", percentile(Traced.UpdateUs, 0.99),
           "us");
  R.metric("core.session_reuse_ratio",
           Traced.TotalSccs ? static_cast<double>(Traced.ReusedSccs) /
                                  static_cast<double>(Traced.TotalSccs)
                            : 0,
           "ratio");
  R.metric("diffeq.disk_hits", static_cast<double>(Disk.DiskHits), "count");
  if (Sh.DiskReplay)
    diskCacheMetrics(Root, R);
  Spans.report(R, 1);
  reportExprCounters(R);
  reportTrace(R,
              {{"server.lease", Traced.Lease},
               {"server.release", Traced.Release},
               {"reader", Traced.Load},
               {"core.session_update", Traced.Update},
               {"explain", Traced.Explain}},
              Traced.Busy, Traced.Wall / Untraced.Wall - 1);
  std::error_code Ec;
  std::filesystem::remove_all(Root, Ec);
}

} // namespace

void perfbench::runServer(const Options &Opts, Report &R, bool Churn) {
  // Half the CPUs for connections and as many daemon workers: with one
  // each per CPU, client, worker and IO threads oversubscribe the machine
  // and scheduling noise swamps the tail latency.
  Options O = Opts;
  O.Threads = std::max(1u, Opts.Threads / 2);
  Shape Sh = shapeFor(Churn, O.Threads);
  std::vector<std::vector<size_t>> Names;
  for (unsigned C = 0; C != O.Threads; ++C)
    Names.push_back(namesFor(C, O.Threads, Sh.Pool, O.Seed));

  // Set-up, three times: spawn the daemon, build the scripts and their
  // expected bodies while it starts, wait for its bind and, for session,
  // warm every name's session.
  DaemonRun Run;
  std::vector<Script> Scripts;
  std::vector<double> SetUp;
  for (unsigned I = 0; I != 3; ++I) {
    Run.shutDown();
    Clock::time_point Start = Clock::now();
    Run = spawn(O, Sh, I);
    Scripts = makeScripts(O.Seed, Sh.Pool);
    if (!Run.D->waitForBind(Run.Socket, 10)) {
      R.attempt();
      R.fail("granlogd did not bind " + Run.Socket);
      Run.shutDown();
      return;
    }
    if (Sh.WarmUp)
      warmUp(Run.Socket, Scripts, Names, R);
    SetUp.push_back(secondsSince(Start));
  }
  R.note(format("%s: %u connections, %zu client names, --max-sessions=%zu%s, "
                "seed %llu",
                Churn ? "churn" : "session", O.Threads, Sh.Pool,
                Sh.MaxSessions, Sh.DiskReplay ? ", no --cache-root" : "",
                static_cast<unsigned long long>(O.Seed)));

  double Wall = 0, LoadSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::vector<ClientStats> Clients =
      runLoad(Run.Socket, Scripts, Names, LoadSeconds, Wall);
  double Rss = peakRssMb(Run.D->pid());
  int Exit = Run.shutDown();

  // One-second slices of the load; requests answered after its last full
  // second (the scripts finishing past the deadline) fall outside them.
  std::vector<Slice> Slices(std::max<size_t>(1, size_t(LoadSeconds)));
  for (Slice &S : Slices)
    S.Seconds = 1;
  std::array<std::vector<double>, 7> ByOp;
  uint64_t Requests = 0;
  for (const ClientStats &C : Clients) {
    Requests += C.Requests;
    for (const std::string &F : C.Failures)
      R.fail(F);
    for (size_t K = 0; K != ByOp.size(); ++K)
      ByOp[K].insert(ByOp[K].end(), C.Ms[K].begin(), C.Ms[K].end());
    for (size_t I = 0; I != C.EndS.size(); ++I)
      if (size_t K = size_t(C.EndS[I]); K < Slices.size()) {
        ++Slices[K].Ops;
        Slices[K].LatencyMs.push_back(C.LatencyMs[I]);
      }
  }
  R.attempt(Requests);
  if (Exit != 0) {
    R.attempt();
    R.fail(format("granlogd exited with %d after SIGTERM", Exit));
  }
  if (O.Trace)
    return serverTraced(O, Sh, Scripts, Names, ByOp, R);

  R.note(format("%llu requests in %.3f s",
                static_cast<unsigned long long>(Requests), Wall));
  reportEndToEnd(R, "request", SetUp, Slices, Rss);
  reportSim(paperPass(R), R);
}
