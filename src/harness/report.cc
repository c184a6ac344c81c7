// The output half of harness/figures.h.
#include "harness/figures.h"

#include <cinttypes>
#include <thread>

namespace bohm {

#ifdef __clang__
constexpr char kCompiler[] = __VERSION__;  // "Clang 15.0.6 ..."
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif

std::string FormatTput(double txns_per_sec) {
  char buf[32];
  if (txns_per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", txns_per_sec / 1e6);
  } else if (txns_per_sec >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", txns_per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", txns_per_sec);
  }
  return buf;
}

std::string FormatRow(const Measurement& m) {
  std::string params;
  for (const auto& [k, v] : m.point.params) {
    params += (params.empty() ? "" : " ") + k + "=" + v;
  }
  const BenchResult& r = m.result;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  %-13s %-64s %8s txn/s  abort %5.1f%%  p50/p99/p999 "
                "%" PRIu64 "/%" PRIu64 "/%" PRIu64 " us",
                m.point.system.c_str(), params.c_str(),
                FormatTput(r.Throughput()).c_str(), 100.0 * r.AbortRate(),
                r.P50Us(), r.P99Us(), r.P999Us());
  return buf;
}

void WriteJson(std::FILE* f, const char* figure,
               const std::vector<Measurement>& points) {
  std::fprintf(f,
               "{\n  \"figure\": \"%s\", \"nproc\": %u, \"compiler\": \"%s\", "
               "\"build_type\": \"%s\",\n  \"points\": [\n",
               figure, std::thread::hardware_concurrency(), kCompiler,
               BOHM_BUILD_TYPE);
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i].point;
    const BenchResult& r = points[i].result;
    // One point per line, keys in a fixed order, so line-oriented tools
    // can pick fields without a JSON parser.
    std::fprintf(f, "    {\"system\": \"%s\"", p.system.c_str());
    for (const auto& [k, v] : p.params) {
      std::fprintf(f, ", \"%s\": \"%s\"", k.c_str(), v.c_str());
    }
    std::fprintf(
        f,
        ", \"seconds\": %.6f, \"commits\": %" PRIu64
        ", \"cc_aborts\": %" PRIu64 ", \"logic_aborts\": %" PRIu64
        ", \"tput_txns_per_sec\": %.1f, \"abort_rate\": %.6f"
        ", \"lat_count\": %" PRIu64 ", \"lat_mean_us\": %.3f"
        ", \"p50_us\": %" PRIu64 ", \"p99_us\": %" PRIu64
        ", \"p999_us\": %" PRIu64 ", \"max_us\": %" PRIu64
        ", \"seq_stall_us\": %.1f, \"seq_idle_us\": %.1f"
        ", \"cc_stall_us\": %.1f"
        ", \"exec_stall_us\": %.1f, \"log_stall_us\": %.1f"
        ", \"log_bytes\": %" PRIu64 ", \"log_records\": %" PRIu64
        ", \"fsyncs\": %" PRIu64 ", \"cc_migrations\": %" PRIu64,
        r.seconds, r.commits, r.cc_aborts, r.logic_aborts, r.Throughput(),
        r.AbortRate(), r.latency_us.count(), r.latency_us.Mean(), r.P50Us(),
        r.P99Us(), r.P999Us(), r.latency_us.max(),
        static_cast<double>(r.seq_stall_ns) / 1000.0,
        static_cast<double>(r.seq_idle_ns) / 1000.0,
        static_cast<double>(r.cc_stall_ns) / 1000.0,
        static_cast<double>(r.exec_stall_ns) / 1000.0,
        static_cast<double>(r.log_stall_ns) / 1000.0, r.log_bytes,
        r.log_records, r.log_fsyncs, r.cc_migrations);
    if (r.cc_imbalance_x1000 == 0) {
      std::fprintf(f, ", \"cc_imbalance\": null");
    } else {
      std::fprintf(f, ", \"cc_imbalance\": %.3f",
                   static_cast<double>(r.cc_imbalance_x1000) / 1000.0);
    }
    if (!p.executor) std::fprintf(f, ", \"gc_freed\": %" PRIu64, r.gc_freed);
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

}  // namespace bohm
