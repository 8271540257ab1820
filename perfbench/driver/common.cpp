#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numeric>
#include <stdexcept>

#include "support/json.hpp"

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::runtime_error("usage: perfbench_driver <mode> ...");
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--port") a.port = std::stoi(value);
    else if (flag == "--daemon-pid") a.daemon_pid = std::stoi(value);
    else if (flag == "--work-dir") a.work_dir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  if (a.work_dir.empty()) throw std::runtime_error("--work-dir is required");
  return a;
}

std::size_t Layers::slot(const char* name) {
  for (std::size_t i = 0; i < totals_.size(); ++i)
    if (totals_[i].first == name || std::strcmp(totals_[i].first, name) == 0)
      return i;
  totals_.emplace_back(name, 0.0);
  return totals_.size() - 1;
}

double Layers::total(const char* name) const {
  for (const auto& [n, ms] : totals_)
    if (std::strcmp(n, name) == 0) return ms;
  return 0.0;
}

double Layers::sum() const {
  double s = 0;
  for (const auto& [n, ms] : totals_) s += ms;
  return s;
}

double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::map<std::string, double> counter_deltas(
    const veccost::obs::Snapshot& before, const veccost::obs::Snapshot& after) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value > base) out[name] = static_cast<double>(value - base);
  }
  return out;
}

void RunResult::fail(std::string message, bool known_fault) {
  ++failed;
  if (!known_fault) correct = false;
  if (failures.size() < 12 &&
      std::find(failures.begin(), failures.end(), message) == failures.end())
    failures.push_back(std::move(message));
}

void RunResult::add_layers(const Layers& layers, double op_wall_ms,
                           std::size_t ops) {
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  for (const auto& [name, ms] : layers.totals()) add(name, ms / n, "ms");
  add("op_ms", op_wall_ms / n, "ms");
  add("residual_ms", (op_wall_ms - layers.sum()) / n, "ms");
}

void emit(const Args& args, const RunResult& r) {
  std::cerr << "[" << args.workload << (args.trace ? ", traced" : "")
            << "] attempted " << r.attempted << ", failed " << r.failed
            << ", correct " << (r.correct ? "true" : "false") << '\n';
  for (const std::string& f : r.failures) std::cerr << "  failed: " << f << '\n';
  if (!r.counters_per_op.empty()) {
    std::cerr << "  program counters, delta per operation:\n";
    for (const auto& [name, v] : r.counters_per_op)
      std::cerr << "    " << name << " " << v << '\n';
  }
  using veccost::support::Json;
  Json metrics = Json::object();
  for (const Metric& m : r.metrics) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json counters = Json::object();
  for (const auto& [name, v] : r.counters_per_op) counters.set(name, v);
  Json failures = Json::array();
  for (const std::string& f : r.failures) failures.push(f);
  Json doc = Json::object();
  doc.set("correct", r.correct);
  doc.set("attempted", static_cast<std::int64_t>(r.attempted));
  doc.set("failed", static_cast<std::int64_t>(r.failed));
  doc.set("metrics", std::move(metrics));
  doc.set("counters_per_op", std::move(counters));
  doc.set("failures", std::move(failures));
  std::cout << doc.dump() << std::endl;
}

int report_controls(const std::string& workload,
                    const std::vector<Control>& controls) {
  bool all = !controls.empty();
  for (const Control& c : controls) {
    std::cout << "selfcheck " << workload << ": " << c.name << ": "
              << (c.held ? "ok" : "FAILED") << " (" << c.detail << ")\n";
    all = all && c.held;
  }
  return all ? 0 : 1;
}

}  // namespace perfbench
