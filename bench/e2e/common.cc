#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "serve/client.h"

namespace adrec::e2e {

bool ParseRunArgs(int argc, char** argv, const char* tool, RunArgs* a) {
  bool ok = true;
  for (int i = 1; i < argc && ok; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      char* end = nullptr;
      a->seed = std::strtoull(val.c_str(), &end, 10);
      ok = !val.empty() && *end == '\0';
    } else if (key == "--seconds") {
      char* end = nullptr;
      a->seconds = std::strtod(val.c_str(), &end);
      ok = !val.empty() && *end == '\0';
    } else if (key == "--adrecd") {
      a->adrecd = val;
    } else if (key == "--work") {
      a->work = val;
    } else if (key == "--out") {
      a->out = val;
    } else if (key == "--smoke") {
      a->smoke = true;
    } else {
      ok = false;
    }
  }
  // The op streams are generated up front: bound their size.
  ok = ok && !a->workload.empty() && !a->adrecd.empty() &&
       !a->work.empty() && a->seconds >= 1 && a->seconds <= 600;
  if (!ok) {
    std::fprintf(stderr,
                 "usage: %s --workload=NAME --seed=N --seconds=S (1-600) "
                 "--adrecd=PATH --work=DIR [--out=DIR] [--smoke]\n",
                 tool);
  }
  return ok;
}

void Die(const std::string& what) { throw Fatal(what); }

int RunMain(const char* tool, const std::function<int()>& body) {
  try {
    return body();
  } catch (const Fatal& f) {
    std::fprintf(stderr, "%s: %s\n", tool, f.what());
    return 2;
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::map<std::string, double> FetchStats(uint16_t port) {
  std::map<std::string, double> out;
  serve::Client client;
  if (!client.Connect("127.0.0.1", port).ok()) return out;
  auto reply = client.Command("stats");
  if (!reply.ok()) return out;
  const std::string& text = reply.value();
  for (size_t pos = 0; pos < text.size();) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    char name[128];
    double value = 0;
    // Timer lines ("count=... p50=...") are skipped.
    if (line.find('=') == std::string::npos &&
        std::sscanf(line.c_str(), "STAT %127s %lf", name, &value) == 2) {
      out[name] = value;
    }
  }
  client.Quit();
  return out;
}

void PrintRows(const char* title, const std::vector<Row>& rows) {
  std::printf("%s\n", title);
  for (const Row& r : rows) {
    std::printf("  %-30s %14.4f %-6s %s\n", r.name.c_str(), r.value,
                r.unit.c_str(), r.note.c_str());
  }
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Row>& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  return json + "}}";
}

ScratchDir::ScratchDir(const std::string& work, const std::string& name)
    : path_(work + "/" + name + "-" + std::to_string(getpid())) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) Die("mkdir " + path_ + ": " + ec.message());
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace adrec::e2e
