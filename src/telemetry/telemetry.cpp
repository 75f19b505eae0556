#include "telemetry/telemetry.hpp"

#include <fstream>

namespace eslurm::telemetry {

void Telemetry::enable(std::size_t max_trace_events) {
  enabled_ = true;
  tracer.enable(max_trace_events);
}

void Telemetry::reset() {
  enabled_ = false;
  tracer.disable();
  tracer.clear();
  metrics.clear();
  lanes_.clear();
}

void Telemetry::fold(Telemetry&& world, std::string lane) {
  metrics.merge(world.metrics);
  lanes_.push_back({std::move(lane), std::move(world.metrics)});
  tracer.append(std::move(world.tracer), static_cast<std::uint32_t>(lanes_.size()));
}

bool Telemetry::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  tracer.write_chrome_trace(os, &metrics, lanes_);
  os << '\n';
  return static_cast<bool>(os);
}

}  // namespace eslurm::telemetry
