// hdbench --workload W --seed N --units K --trace 0|1 --jobs J --rounds R
//         --work-dir DIR --hdiff PATH --out FILE
//
// Runs one workload and writes its raw measurements as JSON to FILE (see
// bench.h).  Exit 0 even when an in-process correctness check failed: the
// failure is listed under "errors" and run.py fails the run on it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "report/json.h"

namespace {

using hdiff::report::JsonWriter;

std::string render(const hdbench::Result& res) {
  JsonWriter w;
  w.begin_object();
  w.key("peak_rss_kib")
      .value(static_cast<std::uint64_t>(hdbench::peak_rss_kib()));
  w.key("export_path").value(res.export_path);
  w.key("trace_path").value(res.trace_path);
  w.key("reference_dir").value(res.reference_dir);
  w.key("serve_traces").begin_array();
  for (const auto& p : res.serve_traces) w.value(p);
  w.end_array();
  w.key("errors").begin_array();
  for (const auto& e : res.errors) w.value(e);
  w.end_array();
  w.key("units").begin_array();
  for (const hdbench::Unit& u : res.units) {
    w.begin_object();
    w.key("setup_ns").value(static_cast<std::uint64_t>(u.setup_ns));
    w.key("wall_ns").value(static_cast<std::uint64_t>(u.wall_ns));
    w.key("round_ns").begin_array();
    for (std::uint64_t ns : u.round_ns) w.value(ns);
    w.end_array();
    w.key("cases").value(static_cast<std::uint64_t>(u.cases));
    w.key("findings").value(static_cast<std::uint64_t>(u.findings));
    w.key("failed").value(static_cast<std::uint64_t>(u.failed));
    w.key("phases_ns").begin_array();
    for (const auto& round : u.phases_ns) {
      w.begin_array();
      for (std::uint64_t ns : round) w.value(ns);
      w.end_array();
    }
    w.end_array();
    w.key("dir").value(u.dir);
    w.key("traced").value(u.traced);
    w.key("layers").begin_object();
    for (const auto& [name, v] : u.layers) {
      // Full precision: JsonWriter's double form keeps only six digits.
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      w.key(name).raw(buf);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: hdbench --workload oneshot|campaign|streams|serve "
               "--seed N --units K --trace 0|1 --jobs J --rounds R "
               "--work-dir DIR --hdiff PATH --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hdbench::Options o;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      o.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--units") == 0) {
      o.units = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--trace") == 0) {
      o.trace = std::strcmp(value, "1") == 0;
    } else if (std::strcmp(flag, "--jobs") == 0) {
      o.jobs = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--rounds") == 0) {
      o.rounds = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--work-dir") == 0) {
      o.work_dir = value;
    } else if (std::strcmp(flag, "--hdiff") == 0) {
      o.hdiff_bin = value;
    } else if (std::strcmp(flag, "--out") == 0) {
      out_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.work_dir.empty() ||
      out_path.empty() || o.units == 0 || o.jobs == 0 || o.rounds == 0) {
    return usage();
  }
  try {
    const hdbench::Result res = hdbench::run_workload(o);
    std::ofstream out(out_path, std::ios::binary);
    out << render(res) << '\n';
    if (!out) {
      std::fprintf(stderr, "hdbench: cannot write %s\n", out_path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hdbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
