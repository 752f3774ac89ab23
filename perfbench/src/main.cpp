// coda_perfbench: one workload, one process, one closed loop.
//
//   coda_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   coda_perfbench --list-metrics
//
// Order of a run:
//  1. child processes, forked before this process starts any thread: at
//     least four each time set-up and then run their first search (the
//     cold searches), more up to three quarters of --seconds; then set-up-only
//     children until eleven processes have timed set-up;
//  2. this process's set-ups and its own first search;
//  3. the reference answer;
//  4. warm searches for --seconds. With --trace 1 the warm time is split
//     between untraced and traced searches, followed by the per-layer
//     replay.
// Every search is checked against the reference. The last stdout line is
// one JSON object.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "report.h"
#include "src/obs/metrics.h"
#include "src/util/stopwatch.h"
#include "workload.h"

namespace perfbench {
namespace {

// Each process's set-up time is the median of at least kMinSetups set-ups
// repeated for kSetupBudgetS (at most kMaxSetups): microsecond-scale
// set-ups need many samples. setup_s is the median over kSetupProcesses
// processes, since the per-process figure shifts from one process to the
// next.
constexpr std::size_t kMinSetups = 15;
constexpr std::size_t kMaxSetups = 2000;
constexpr double kSetupBudgetS = 0.05;
constexpr std::size_t kSetupProcesses = 11;
// Cold searches: at least kMinColdProcesses fresh processes, then more while
// three quarters of --seconds last, at most kMaxColdProcesses. One cold
// search is one sample per process, so its median needs many processes.
constexpr std::size_t kMinColdProcesses = 4;
constexpr std::size_t kMaxColdProcesses = 15;
constexpr std::size_t kMinWarmSearches = 3;

using Factory = std::function<std::unique_ptr<Workload>()>;

// A search outcome as text, doubles in hexadecimal so they read back
// bit for bit: "<seconds> <redundant> <answers> <threw>", then the error
// line if it threw, then per answer a line of fold scores and a spec line.
std::string encode(const SearchOutcome& o) {
  std::string s;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a %zu %zu %d\n", o.seconds,
                o.redundant_evaluations, o.answers.size(),
                o.error.empty() ? 0 : 1);
  s += buf;
  if (!o.error.empty()) {
    std::string e = o.error;
    std::replace(e.begin(), e.end(), '\n', ' ');
    s += e + "\n";
  }
  for (const Answer& a : o.answers) {
    s += std::to_string(a.fold_scores.size());
    for (const double v : a.fold_scores) {
      std::snprintf(buf, sizeof(buf), " %a", v);
      s += buf;
    }
    s += "\n" + a.spec + "\n";
  }
  return s;
}

SearchOutcome decode(const std::string& text) {
  std::istringstream in(text);
  std::string seconds;
  std::size_t n_answers = 0;
  int threw = 0;
  SearchOutcome o;
  if (!(in >> seconds >> o.redundant_evaluations >> n_answers >> threw)) {
    throw std::runtime_error("cold child sent no outcome");
  }
  o.seconds = std::strtod(seconds.c_str(), nullptr);
  in.ignore(1);
  if (threw) std::getline(in, o.error);
  for (std::size_t i = 0; i < n_answers; ++i) {
    Answer a;
    std::size_t n_scores = 0;
    in >> n_scores;
    for (std::size_t j = 0; j < n_scores; ++j) {
      std::string v;
      in >> v;
      a.fold_scores.push_back(std::strtod(v.c_str(), nullptr));
    }
    in.ignore(1);
    std::getline(in, a.spec);
    o.answers.push_back(std::move(a));
  }
  if (!in) throw std::runtime_error("cold child sent a truncated outcome");
  return o;
}

double median_setup_seconds(Workload& w) {
  std::vector<double> samples;
  coda::Stopwatch clock;
  while (samples.size() < kMinSetups ||
         (clock.elapsed_seconds() < kSetupBudgetS &&
          samples.size() < kMaxSetups)) {
    coda::Stopwatch timer;
    w.setup();
    samples.push_back(timer.elapsed_seconds());
  }
  return median(samples);
}

struct ChildResult {
  double setup_s = 0.0;
  std::optional<SearchOutcome> cold;
};

/// Runs the set-up loop and, with `search`, the process's first search in a
/// child forked while this process has started no thread yet. The child
/// writes its results back over a pipe; the parent waits for it to end.
ChildResult run_child(const Factory& make, bool search) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      auto w = make();
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%a %d\n", median_setup_seconds(*w),
                    search ? 1 : 0);
      std::string text = buf;
      if (search) text += encode(w->search(false));
      for (std::size_t done = 0; done < text.size();) {
        const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (...) {
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("benchmark child process failed");
  }
  ChildResult r;
  const std::size_t eol = text.find('\n');
  if (eol == std::string::npos) throw std::runtime_error("child sent nothing");
  r.setup_s = std::strtod(text.c_str(), nullptr);
  if (text.compare(eol - 1, 1, "1") == 0) r.cold = decode(text.substr(eol + 1));
  return r;
}

/// Process-wide program counters a window of searches is measured by.
struct Counters {
  double task_s = 0.0;
  double queue_wait_s = 0.0;
  double hits = 0.0;
  double misses = 0.0;
  double compiled = 0.0;
  double fallback = 0.0;
  double gemm_calls = 0.0;
  double gemm_flops = 0.0;
  double messages = 0.0;
  double cpu_s = 0.0;

  static Counters read() {
    namespace obs = coda::obs;
    const auto c = [](const char* name) {
      return static_cast<double>(obs::counter(name).value());
    };
    Counters r;
    r.task_s = obs::histogram("pool.task_seconds").sum();
    r.queue_wait_s = obs::histogram("pool.queue_wait_seconds").sum();
    r.hits = c("eval.prefix_cache.hit");
    r.misses = c("eval.prefix_cache.miss");
    r.compiled = c("eval.plan.compiled");
    r.fallback = c("eval.plan.fallback");
    r.gemm_calls = c("kernel.gemm.calls");
    r.gemm_flops = c("kernel.gemm.flops");
    r.messages = c("simnet.messages");
    r.cpu_s = process_cpu_seconds();
    return r;
  }

  Counters minus(const Counters& o) const {
    Counters d;
    d.task_s = task_s - o.task_s;
    d.queue_wait_s = queue_wait_s - o.queue_wait_s;
    d.hits = hits - o.hits;
    d.misses = misses - o.misses;
    d.compiled = compiled - o.compiled;
    d.fallback = fallback - o.fallback;
    d.gemm_calls = gemm_calls - o.gemm_calls;
    d.gemm_flops = gemm_flops - o.gemm_flops;
    d.messages = messages - o.messages;
    d.cpu_s = cpu_s - o.cpu_s;
    return d;
  }
};

struct Window {
  std::vector<SearchOutcome> searches;
  Counters delta;

  std::vector<double> seconds() const {
    std::vector<double> v;
    for (const auto& s : searches) v.push_back(s.seconds);
    return v;
  }
  double total_seconds() const {
    double t = 0.0;
    for (const auto& s : searches) t += s.seconds;
    return t;
  }
  double per_search(double v) const {
    return v / static_cast<double>(searches.size());
  }
};

/// Closed loop: the next search starts when the previous one returns.
Window run_window(Workload& w, bool traced, double budget_s) {
  Window win;
  const Counters before = Counters::read();
  coda::Stopwatch clock;
  while (win.searches.size() < kMinWarmSearches ||
         clock.elapsed_seconds() < budget_s) {
    win.searches.push_back(w.search(traced));
  }
  win.delta = Counters::read().minus(before);
  return win;
}

void add_end_to_end(Report& r, const std::vector<double>& setup,
                    const std::vector<SearchOutcome>& cold, const Window& warm,
                    std::size_t failed, std::size_t attempted) {
  const auto secs = warm.seconds();
  const Tail search_tail = tail(secs);
  r.add("setup_s", median(setup), "s",
        "median over " + std::to_string(setup.size()) +
            " processes of their median set-up: inputs + graph "
            "(reference excluded)");
  std::vector<double> cold_s;
  std::string listed;
  for (const auto& c : cold) {
    cold_s.push_back(c.seconds);
    listed += " " + std::to_string(c.seconds);
  }
  std::printf("# cold searches (s):%s\n", listed.c_str());
  r.add("cold_search_s", median(cold_s), "s",
        "median over " + std::to_string(cold_s.size()) +
            " fresh processes of their first search");
  const auto q = quartiles(secs);
  char spread[96];
  std::snprintf(spread, sizeof(spread), " (Q1 %.6f, Q3 %.6f)", q[0], q[2]);
  r.add("search_s", median(secs), "s",
        "median of " + std::to_string(secs.size()) + " warm searches" +
            spread);
  r.add("search_s_tail", search_tail.value, "s", search_tail.label());
  double folds = 0.0;
  for (const auto& s : warm.searches) {
    folds += static_cast<double>(s.fold_evaluations);
  }
  char note[128];
  std::snprintf(note, sizeof(note),
                "%.0f locally computed fold evaluations / %.6f warm s", folds,
                warm.total_seconds());
  r.add("fold_evals_per_s", folds / warm.total_seconds(), "1/s", note);
  r.add("cpu_s_per_search", warm.per_search(warm.delta.cpu_s), "s",
        "getrusage user+sys over the warm searches / searches");
  r.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");
  r.add_ratio("error_rate",
              Ratio{static_cast<double>(failed),
                    static_cast<double>(attempted), "wrong searches",
                    "attempted searches"});

  std::vector<double> clients;
  double wire = 0.0;
  for (const auto& s : warm.searches) {
    clients.insert(clients.end(), s.client_seconds.begin(),
                   s.client_seconds.end());
    wire += static_cast<double>(s.bytes_on_wire);
  }
  if (clients.empty()) {
    for (const char* name : {"client_s", "client_s_tail"}) {
      r.add_absent(name, "s", "coop_fleet only");
    }
    r.add_absent("wire_bytes_per_search", "bytes", "coop_fleet only");
    return;
  }
  const Tail client_tail = tail(clients);
  r.add("client_s", median(clients), "s",
        "median ClientOutcome::seconds over " +
            std::to_string(clients.size()) + " client sessions");
  r.add("client_s_tail", client_tail.value, "s", client_tail.label());
  r.add("wire_bytes_per_search", warm.per_search(wire), "bytes",
        "SimNet bytes_on_wire per fleet run");
}

void add_common_layers(Report& r, const Workload& w, const Window& warm,
                       const Window& traced) {
  const Counters& d = warm.delta;
  const double wall = warm.total_seconds();
  const double threads = static_cast<double>(w.pool_threads());
  r.add("engine.makespan_excess_s",
        warm.per_search(wall - d.task_s / threads), "s",
        "per search: wall - pool task s / " +
            std::to_string(w.pool_threads()) + " threads");
  r.add_ratio("engine.pool.utilization",
              Ratio{d.task_s, wall * threads, "s pool task time",
                    "s search wall x pool threads"});
  r.add("engine.pool.queue_wait_s", warm.per_search(d.queue_wait_s), "s",
        "pool.queue_wait_seconds sum per search");
  r.add_ratio("engine.prefix_cache.hit_ratio",
              Ratio{d.hits, d.hits + d.misses, "prefix-cache hits",
                    "prefix-cache lookups"});
  r.add_ratio("engine.cpu_over_task",
              Ratio{d.cpu_s, d.task_s, "s process CPU", "s pool task time"});
  const SearchOutcome& last = warm.searches.back();
  r.add("search.fold_evals", static_cast<double>(last.fold_evaluations),
        "count", "EvaluationReport::fold_evaluations (fleet: summed)");
  r.add("search.fold_evals_planned",
        static_cast<double>(last.fold_evaluations_planned), "count",
        "EvaluationReport::fold_evaluations_planned");
  r.add("search.pruned", static_cast<double>(last.pruned), "count",
        "EvaluationReport::pruned_candidates");
  r.add("plan.compiled", warm.per_search(d.compiled), "count",
        "eval.plan.compiled per search");
  r.add("plan.fallback", warm.per_search(d.fallback), "count",
        "eval.plan.fallback per search");
  r.add("kernels.gemm.calls_per_search", warm.per_search(d.gemm_calls),
        "count", "kernel.gemm.calls per search");
  r.add("kernels.gemm.flops_per_search", warm.per_search(d.gemm_flops),
        "count", "kernel.gemm.flops per search (a count, not a rate)");
  r.add("obs.trace_overhead_s",
        median(traced.seconds()) - median(warm.seconds()), "s",
        "median traced search - median untraced search");

  if (last.client_seconds.empty()) return;  // not a fleet
  std::vector<double> waits;
  double redundant = 0.0, avoided = 0.0, wire = 0.0, sync = 0.0;
  for (const auto& s : warm.searches) {
    waits.insert(waits.end(), s.claim_waits.begin(), s.claim_waits.end());
    redundant += static_cast<double>(s.redundant_evaluations);
    avoided += static_cast<double>(s.redundancy_avoided);
    wire += static_cast<double>(s.bytes_on_wire);
    sync += static_cast<double>(s.sync_bytes);
  }
  if (!waits.empty()) {
    const Tail wait_tail = tail(waits);
    r.add("darr.claim_wait_s.p50", median(waits), "s",
          "CandidateResult::claim_wait_seconds over " +
              std::to_string(waits.size()) + " waiting candidates");
    r.add("darr.claim_wait_s.tail", wait_tail.value, "s", wait_tail.label());
  }
  r.add("darr.redundant_evals", warm.per_search(redundant), "count",
        "CooperativeReport::redundant_evaluations per fleet");
  r.add("darr.redundancy_avoided", warm.per_search(avoided), "count",
        "CooperativeReport::redundancy_avoided per fleet");
  r.add("dist.messages", warm.per_search(d.messages), "count",
        "simnet.messages per fleet");
  r.add("dist.bytes_on_wire", warm.per_search(wire), "bytes",
        "CooperativeReport::bytes_on_wire per fleet");
  r.add("dist.sync_bytes", warm.per_search(sync), "bytes",
        "replica sync bytes per fleet");
}

/// Per-layer metrics a workload does not exercise read 0, with a note.
void fill_unexercised(Report& r, const std::string& workload) {
  for (const MetricSpec& m : per_layer_metrics()) {
    bool present = false;
    for (const auto& line : r.lines()) {
      if (line.name == m.name) {
        if (line.unit != m.unit) {
          throw std::logic_error("metric " + line.name + " reported in " +
                                 line.unit + ", catalogue says " + m.unit);
        }
        present = true;
      }
    }
    if (!present) {
      r.add(m.name, 0.0, m.unit,
            std::string("not exercised on ") + workload +
                (std::strcmp(m.unit, "ratio") == 0 ? " (0 / 0)" : ""));
    }
  }
}

int list_metrics() {
  const auto emit = [](const char* key, const std::vector<MetricSpec>& v) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}", i ? ", " : "",
                  v[i].name, v[i].unit);
    }
    std::printf("]");
  };
  std::printf("{");
  emit("end_to_end", end_to_end_metrics());
  std::printf(", ");
  emit("per_layer", per_layer_metrics());
  std::printf("}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: coda_perfbench --workload forecast_fit|"
               "forecast_prepare|coop_fleet --seed N --seconds S "
               "--trace 0|1\n       coda_perfbench --list-metrics\n");
  return 2;
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") return list_metrics();
    if (a.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    args[a.substr(2)] = argv[++i];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(key) == 0) return usage();
  }
  const std::string name = args["workload"];
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args["trace"] == "1";
  if (seconds <= 0.0) return usage();

  const std::size_t threads = std::min<std::size_t>(4, nproc());
  Factory make;
  if (name == "forecast_fit") {
    make = [=] { return make_forecast_fit(seed, threads); };
  } else if (name == "forecast_prepare") {
    make = [=] { return make_forecast_prepare(seed, threads); };
  } else if (name == "coop_fleet") {
    make = [=] { return make_coop_fleet(seed, threads); };
  } else {
    return usage();
  }

  std::printf("# coda perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "threads=%zu\n",
              name.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, threads);
  std::printf("# host %s\n", fingerprint_json().c_str());
  std::printf("# absolute seconds compare only between results that carry "
              "the same host fingerprint\n");
  std::fflush(stdout);

  // Child processes first, while this process has no threads to fork with.
  std::vector<SearchOutcome> cold;
  std::vector<double> setup;  // one median per process
  coda::Stopwatch cold_clock;
  while (cold.size() < kMinColdProcesses ||
         (cold_clock.elapsed_seconds() < seconds * 0.75 &&
          cold.size() < kMaxColdProcesses)) {
    ChildResult r = run_child(make, /*search=*/true);
    setup.push_back(r.setup_s);
    cold.push_back(std::move(*r.cold));
  }
  while (setup.size() + 1 < kSetupProcesses) {
    setup.push_back(run_child(make, /*search=*/false).setup_s);
  }
  const std::unique_ptr<Workload> w = make();
  setup.push_back(median_setup_seconds(*w));
  cold.push_back(w->search(false));
  coda::Stopwatch ref_timer;
  w->compute_reference();
  std::printf("# reference answer (%.3f s, not timed as set-up): %s\n",
              ref_timer.elapsed_seconds(), w->reference().spec.c_str());

  const double budget = trace ? seconds / 2.0 : seconds;
  const Window warm = run_window(*w, /*traced=*/false, budget);
  Window traced;
  if (trace) traced = run_window(*w, /*traced=*/true, budget);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (const Window* win : {&warm, static_cast<const Window*>(&traced)}) {
    for (const SearchOutcome& s : win->searches) {
      ++attempted;
      const std::string why = check_outcome(s, w->reference());
      if (!why.empty()) {
        if (failed++ == 0) std::printf("# wrong search: %s\n", why.c_str());
      }
    }
  }
  for (const SearchOutcome& s : cold) {
    ++attempted;
    const std::string why = check_outcome(s, w->reference());
    if (!why.empty()) {
      if (failed++ == 0) std::printf("# wrong cold search: %s\n", why.c_str());
    }
  }

  Report report;
  add_end_to_end(report, setup, cold, warm, failed, attempted);
  std::string replay_error;
  if (trace) {
    add_common_layers(report, *w, warm, traced);
    replay_error = w->trace_layers(report);
    probe_gemm_rates(report);
    fill_unexercised(report, name);
    if (!replay_error.empty()) {
      std::printf("# replay check failed: %s\n", replay_error.c_str());
    }
  }
  report.print_table(stdout);
  std::printf("%s\n",
              report.json(failed == 0 && replay_error.empty(), attempted,
                          failed)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coda_perfbench: %s\n", e.what());
    return 1;
  }
}
