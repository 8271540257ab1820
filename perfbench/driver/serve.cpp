// serve: a closed loop over one connection to a `veccost --jobs 1 serve`
// daemon that run.py started with an empty cache directory, on the CPU this
// client is pinned to. The client sends its next request only after the
// previous answer arrives, as a compiler querying the daemon would. A round
// replays the seeded serve::loadgen_request_line stream (60% predict, 30%
// measure, 10% select over the suite); runs attempt whole rounds.
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "ir/parser.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/json.hpp"
#include "support/socket.hpp"

namespace perfbench {
namespace {

using namespace veccost;
using support::Json;

constexpr std::int64_t kStream = 2000;  ///< request lines per round
constexpr int kTimeoutMs = 60000;
constexpr int kReplayRounds = 3;  ///< in-process replays of the traced run

struct Stream {
  std::vector<std::string> lines;
  std::vector<serve::Verb> verbs;
  std::vector<std::string> expected;  ///< normalized in-process answers
};

std::string strip_newline(std::string line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

/// One request line answered by an in-process CostService, as the daemon's
/// connection and batch threads would answer it.
std::string answer_in_process(const serve::CostService& service,
                              const std::string& line) {
  const serve::RequestParse parse = serve::parse_request(line);
  if (!parse.ok)
    return strip_newline(serve::to_line(serve::error_response(
        parse.request.id, parse.verb_name, serve::ErrorCode::BadRequest,
        parse.error)));
  serve::CostService::Admission adm = service.admit(parse.request);
  const Json response = adm.ok ? service.execute(adm.job) : adm.error;
  return strip_newline(serve::to_line(response));
}

Stream make_stream(std::uint64_t seed, const serve::CostService& reference) {
  serve::LoadgenOptions opts;
  opts.seed = seed;
  opts.requests = kStream;
  Stream s;
  for (std::int64_t i = 0; i < kStream; ++i) {
    s.lines.push_back(serve::loadgen_request_line(opts, i));
    s.verbs.push_back(serve::parse_request(s.lines.back()).request.verb);
    s.expected.push_back(serve::digest_normalized_response(
        answer_in_process(reference, s.lines.back())));
  }
  return s;
}

/// `obj[key]` as a number; throws when it is absent or not a number.
double number(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr || !v->is_number())
    throw std::runtime_error(std::string("no number '") + key + "'");
  return v->as_double();
}

/// Every output check of one response; returns the first failure, or "".
std::string check_response(const std::string& line,
                           const std::string& expected) {
  try {
    const Json response = Json::parse(line);
    if (!response.get_bool("ok", false)) return "response is not ok: " + line;
    if (serve::digest_normalized_response(line) != expected)
      return "response differs from the in-process answer: " + line;
    const Json* result = response.find("result");
    if (result == nullptr) return "response has no result";
    const std::string verb = response.get_string("verb", "");
    if (verb == "measure" && result->get_bool("vectorizable", false) &&
        number(*result, "measured_speedup") !=
            number(*result, "scalar_cycles") / number(*result, "vector_cycles"))
      return "measure: speedup != scalar_cycles / vector_cycles: " + line;
    if (verb == "select") {
      const Json* options = result->find("options");
      if (options == nullptr || !options->is_array())
        return "select: no options: " + line;
      const auto& opts = options->items();
      const auto best = static_cast<std::size_t>(result->get_int("best", -1));
      if (best >= opts.size()) return "select: best out of range: " + line;
      double lowest = number(opts[best], "measured_cycles");
      for (const Json& o : opts)
        lowest = std::min(lowest, number(o, "measured_cycles"));
      if (number(opts[best], "measured_cycles") != lowest)
        return "select: best is not the argmin of measured cycles: " + line;
      if (!(number(*result, "regret") >= 1.0))
        return "select: regret below 1: " + line;
    }
  } catch (const std::exception& e) {
    return std::string("malformed response (") + e.what() + "): " + line;
  }
  return "";
}

/// One round over the daemon: every line in order, one in flight at a time.
struct Round {
  std::vector<std::string> responses;
  std::vector<double> latency_us;
  std::vector<char> transport_failed;
  double wall_ms = 0;
};

Round run_round(support::TcpStream& conn, const Stream& s) {
  Round r;
  const std::size_t n = s.lines.size();
  r.responses.resize(n);
  r.latency_us.resize(n);
  r.transport_failed.assign(n, 0);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto start = Clock::now();
    std::string line;
    if (!conn.send_all(s.lines[i] + "\n") ||
        conn.read_line(line, kTimeoutMs) !=
            support::TcpStream::ReadResult::Ok) {
      r.transport_failed[i] = 1;
      continue;
    }
    r.latency_us[i] = ms_between(start, Clock::now()) * 1e3;
    r.responses[i] = std::move(line);
  }
  r.wall_ms = ms_between(t0, Clock::now());
  return r;
}

support::TcpStream connect_daemon(int port) {
  support::TcpStream conn = support::TcpStream::connect(
      static_cast<std::uint16_t>(port), kTimeoutMs);
  if (!conn.valid())
    throw std::runtime_error("cannot connect to the daemon on port " +
                             std::to_string(port));
  return conn;
}

/// The daemon's `metrics` verb: its obs registry snapshot.
Json daemon_metrics(int port) {
  support::TcpStream conn = support::TcpStream::connect(
      static_cast<std::uint16_t>(port), kTimeoutMs);
  serve::Request req;
  req.id = "perfbench-metrics";
  req.verb = serve::Verb::Metrics;
  std::string line;
  if (!conn.valid() || !conn.send_all(serve::serialize_request(req) + "\n") ||
      conn.read_line(line, kTimeoutMs) != support::TcpStream::ReadResult::Ok)
    throw std::runtime_error("metrics request failed");
  const Json response = Json::parse(line);
  const Json* result = response.find("result");
  if (result == nullptr) throw std::runtime_error("metrics: no result");
  return *result;
}

double counter(const Json& metrics, const char* name) {
  const Json* c = metrics.find("counters");
  const Json* v = c == nullptr ? nullptr : c->find(name);
  return v == nullptr ? 0.0 : v->as_double();
}

double histogram_field(const Json& metrics, const char* name,
                       const char* field) {
  const Json* h = metrics.find("histograms");
  const Json* e = h == nullptr ? nullptr : h->find(name);
  const Json* v = e == nullptr ? nullptr : e->find(field);
  return v == nullptr ? 0.0 : v->as_double();
}

/// User + system CPU of process `pid` so far, in ms (/proc/<pid>/stat).
double daemon_cpu_ms(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos)
    throw std::runtime_error("cannot read the daemon's CPU time");
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime is field
  // 14 and stime field 15, in clock ticks.
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set of process `pid`, in MB (VmHWM of /proc/<pid>/status).
double daemon_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("cannot read the daemon's peak RSS");
}

const char* execute_layer(serve::Verb verb) {
  switch (verb) {
    case serve::Verb::Predict: return "serve.execute_predict_us";
    case serve::Verb::Measure: return "serve.execute_measure_us";
    default: return "serve.execute_select_us";
  }
}

serve::CostService::Options reference_options(const Args& a) {
  serve::CostService::Options o;
  o.cache_dir = a.work_dir + "/serve-reference";
  return o;
}

/// The in-process half of the traced run: the stream replayed through the
/// calls the daemon makes per request, each under a stopwatch. Adds the
/// per-request layers (us) and residual_ms; returns the in-process
/// per-request mean in us.
double replay_in_process(const serve::CostService& service, const Stream& s,
                         RunResult& r) {
  Layers layers(true);
  double op_ms = 0;
  std::size_t requests = 0;
  for (int round = 0; round < kReplayRounds; ++round) {
    for (std::size_t i = 0; i < s.lines.size(); ++i) {
      const auto t0 = Clock::now();
      const serve::RequestParse parse = layers.time(
          "serve.parse_us", [&] { return serve::parse_request(s.lines[i]); });
      const serve::CostService::Admission adm = layers.time(
          "serve.admit_us", [&] { return service.admit(parse.request); });
      const Json response = layers.time(execute_layer(s.verbs[i]), [&] {
        return adm.ok ? service.execute(adm.job) : adm.error;
      });
      const std::string out = layers.time(
          "serve.serialize_us", [&] { return serve::to_line(response); });
      op_ms += ms_between(t0, Clock::now());
      ++requests;
      // Kernel parsing happens inside admit; timed by a second, separate
      // call so it stays out of the request's own stopwatch.
      (void)layers.time("ir.parse_us",
                        [&] { return ir::parse_kernel(parse.request.kernel); });
    }
  }
  const double n = static_cast<double>(requests);
  double attributed = 0;
  for (const auto& [name, ms] : layers.totals()) {
    r.add(name, ms / n * 1e3, "us");
    if (std::string(name) != "ir.parse_us") attributed += ms;
  }
  for (const char* verb_layer :
       {"serve.execute_predict_us", "serve.execute_measure_us",
        "serve.execute_select_us"})
    if (layers.total(verb_layer) == 0.0) r.add(verb_layer, 0.0, "us");
  r.add("residual_ms", (op_ms - attributed) / n, "ms");
  return op_ms / n * 1e3;
}

}  // namespace

int run_serve(const Args& a) {
  if (a.port <= 0 || a.daemon_pid <= 0)
    throw std::runtime_error("serve needs --port and --daemon-pid");
  const serve::CostService reference(reference_options(a));
  const Stream s = make_stream(a.seed, reference);
  support::TcpStream conn = connect_daemon(a.port);

  RunResult r;
  std::vector<double> latency_us;
  double wall_ms = 0;
  const Json metrics_before = a.trace ? daemon_metrics(a.port) : Json();
  const double cpu0 = daemon_cpu_ms(a.daemon_pid);
  while (wall_ms < a.seconds * 1e3) {
    const Round round = run_round(conn, s);
    wall_ms += round.wall_ms;
    for (std::size_t i = 0; i < s.lines.size(); ++i) {
      ++r.attempted;
      if (round.transport_failed[i]) {
        r.fail("request " + std::to_string(i) + ": transport failure");
        continue;
      }
      latency_us.push_back(round.latency_us[i]);
      const std::string why = check_response(round.responses[i], s.expected[i]);
      if (!why.empty()) r.fail("request " + std::to_string(i) + ": " + why);
    }
  }
  const double cpu_ms = daemon_cpu_ms(a.daemon_pid) - cpu0;
  const double peak_rss = daemon_peak_rss_mb(a.daemon_pid);
  const double requests = static_cast<double>(r.attempted);
  std::vector<double> sorted = latency_us;
  std::sort(sorted.begin(), sorted.end());
  const auto pct = [&](double q) {
    return sorted.empty() ? 0.0
                          : sorted[static_cast<std::size_t>(
                                q * static_cast<double>(sorted.size() - 1))];
  };
  std::cerr << "[serve] wire latency over " << sorted.size()
            << " requests: p50 " << pct(0.5) << " us, p99 " << pct(0.99)
            << " us, mean " << mean(latency_us) << " us; "
            << requests / (wall_ms / 1e3) << " requests/s\n";
  if (!a.trace) {
    r.add("latency_p50_ms", median(latency_us) / 1e3, "ms");
    r.add("cpu_ms_per_op", cpu_ms / requests, "ms");
    r.add("peak_rss_mb", peak_rss, "MB");
  } else {
    const Json metrics_after = daemon_metrics(a.port);
    if (const Json* counters = metrics_after.find("counters"))
      for (const auto& [name, value] : counters->members())
        r.counters_per_op[name] =
            (value.as_double() - counter(metrics_before, name.c_str())) /
            requests;
    const double batches =
        histogram_field(metrics_after, "serve.batch_size", "count") -
        histogram_field(metrics_before, "serve.batch_size", "count");
    const double batched =
        histogram_field(metrics_after, "serve.batch_size", "sum") -
        histogram_field(metrics_before, "serve.batch_size", "sum");
    r.add("serve.batch_size_mean", batches > 0 ? batched / batches : 0.0,
          "count");
    r.add("serve.cache.hit", r.counters_per_op["serve.cache.hit"], "count");
    r.add("serve.cache.miss", r.counters_per_op["serve.cache.miss"], "count");
    const double wire_mean_us = mean(latency_us);
    const double in_process_us = replay_in_process(reference, s, r);
    r.add("serve.transport_us", wire_mean_us - in_process_us, "us");
    r.add("op_ms", wire_mean_us / 1e3, "ms");
  }
  emit(a, r);
  return 0;
}

int selfcheck_serve(const Args& a) {
  if (a.port <= 0) throw std::runtime_error("serve needs --port");
  const serve::CostService reference(reference_options(a));
  const Stream s = make_stream(a.seed, reference);
  support::TcpStream conn = connect_daemon(a.port);
  const Round round = run_round(conn, s);
  std::size_t clean_failures = 0;
  std::string first;
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    const std::string why = round.transport_failed[i]
                                ? "transport failure"
                                : check_response(round.responses[i],
                                                 s.expected[i]);
    if (!why.empty() && clean_failures++ == 0) first = why;
  }
  std::vector<Control> controls;
  controls.push_back({"clean round passes every check", clean_failures == 0,
                      std::to_string(s.lines.size()) + " responses" +
                          (first.empty() ? "" : ", e.g. " + first)});
  // One altered byte inside a served result: the first digit of the first
  // vectorizable measure answer's scalar_cycles.
  std::string why = "no measure answer with a digit in its result";
  for (std::size_t i = 0; i < s.lines.size(); ++i) {
    if (s.verbs[i] != serve::Verb::Measure || round.transport_failed[i])
      continue;
    std::string altered = round.responses[i];
    const std::size_t at = altered.find("\"scalar_cycles\":");
    if (at == std::string::npos) continue;
    const std::size_t digit = altered.find_first_of("0123456789", at);
    if (digit == std::string::npos) continue;
    altered[digit] = altered[digit] == '9' ? '8' : static_cast<char>(altered[digit] + 1);
    why = check_response(altered, s.expected[i]);
    break;
  }
  controls.push_back({"one altered byte in a served result", !why.empty() &&
                          why.rfind("no measure answer", 0) != 0,
                      why});
  return report_controls("serve", controls);
}

}  // namespace perfbench
