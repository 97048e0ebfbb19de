// polybench: drives one seeded workload through Polyphony's public front
// doors (Database::Execute, SoeSqlBridge::Execute) and prints one JSON
// result line. Usage:
//
//   polybench --workload <oltp_point|olap_scan|soe_distributed>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs a plain half and
// a traced half (each front-door call broken into its module calls) and
// prints the per-layer metrics plus the tracing overhead. See README.md.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::cerr << "polybench: " << why
            << "\nusage: polybench --workload <oltp_point|olap_scan|soe_distributed>"
               " --seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  polybench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(cfg.seconds > 0)) return Usage("--seconds wants a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace wants 0 or 1");
      cfg.trace = value == "1";
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.workload == "oltp_point") return polybench::RunOltpPoint(cfg);
  if (cfg.workload == "olap_scan") return polybench::RunOlapScan(cfg);
  if (cfg.workload == "soe_distributed") return polybench::RunSoeDistributed(cfg);
  return Usage(("unknown workload '" + cfg.workload + "'").c_str());
}
