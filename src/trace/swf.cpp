#include "trace/swf.hpp"

#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace eslurm::trace {

namespace {

/// `prefix` followed by `n` in decimal.  Built by appending: GCC 12
/// reports a false -Wrestrict for `"literal" + std::to_string(n)`.
std::string tagged(const char* prefix, long long n) {
  std::string text(prefix);
  text += std::to_string(n);
  return text;
}

}  // namespace

std::vector<sched::Job> read_swf(std::istream& is, int cores_per_node) {
  if (cores_per_node <= 0)
    throw std::invalid_argument("read_swf: cores_per_node must be positive");
  std::vector<sched::Job> jobs;
  std::string line;
  std::size_t line_no = 0;
  sched::JobId next_id = 1;
  while (std::getline(is, line)) {
    ++line_no;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == ';') continue;
    std::istringstream fields{std::string(trimmed)};
    double field[18];
    for (int i = 0; i < 18; ++i) {
      if (!(fields >> field[i]))
        throw std::invalid_argument("swf: line " + std::to_string(line_no) +
                                    " has fewer than 18 fields");
    }
    const double runtime_s = field[3];
    double procs = field[7] > 0 ? field[7] : field[4];
    if (runtime_s <= 0 || procs <= 0) continue;  // cancelled / corrupt entry

    sched::Job job;
    job.id = next_id++;
    job.submit_time = from_seconds(field[1]);
    job.actual_runtime = from_seconds(runtime_s);
    job.cores = static_cast<int>(procs);
    job.nodes = (job.cores + cores_per_node - 1) / cores_per_node;
    job.user_estimate = field[8] > 0 ? from_seconds(field[8]) : 0;
    job.user = tagged("user", static_cast<long long>(field[11]));
    job.name = tagged("app", static_cast<long long>(field[13]));
    const auto queue = static_cast<long long>(field[14]);
    job.partition = queue > 0 ? tagged("q", queue) : "batch";
    jobs.push_back(std::move(job));
  }
  return jobs;
}

void write_swf(std::ostream& os, const std::vector<sched::Job>& jobs,
               int cores_per_node) {
  os << "; SWF written by eslurm (generated workload)\n";
  os << "; MaxProcs inferred from the widest job\n";
  char buf[256];
  for (const auto& job : jobs) {
    // user/app labels of the form user<N>/app<N> round-trip; anything
    // else maps to -1 (SWF has numeric ids only).
    auto numeric_suffix = [](const std::string& s, const char* prefix) -> long long {
      if (!starts_with(s, prefix)) return -1;
      const std::string digits = s.substr(std::string(prefix).size());
      if (digits.empty()) return -1;
      for (const char c : digits)
        if (!std::isdigit(static_cast<unsigned char>(c))) return -1;
      return std::stoll(digits);
    };
    std::snprintf(buf, sizeof(buf),
                  "%llu %.0f -1 %.0f %d -1 -1 %d %.0f -1 1 %lld -1 %lld -1 -1 -1 -1\n",
                  static_cast<unsigned long long>(job.id),
                  to_seconds(job.submit_time), to_seconds(job.actual_runtime),
                  job.cores > 0 ? job.cores : job.nodes * cores_per_node,
                  job.cores > 0 ? job.cores : job.nodes * cores_per_node,
                  to_seconds(job.user_estimate),
                  numeric_suffix(job.user, "user"), numeric_suffix(job.name, "app"));
    os << buf;
  }
}

}  // namespace eslurm::trace
