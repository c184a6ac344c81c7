// Runs the paper's figures and the repo's ablations by name (the table in
// src/harness/figures.cc), printing one row per measurement point.
//
//   paper_bench <figure>... [--smoke] [--json PATH]
//
// --smoke runs the tiny sizes the tests use. --json writes every point
// with all its counters, once every named figure has completed: one
// figure as one object, several as an array of them.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/figures.h"

using namespace bohm;

namespace {

int Usage(const std::string& bad) {
  if (!bad.empty()) std::fprintf(stderr, "unknown argument: %s\n", bad.c_str());
  std::fprintf(stderr,
               "usage: paper_bench <figure>... [--smoke] [--json PATH]\n"
               "figures:\n");
  for (const Figure& f : Figures()) {
    std::fprintf(stderr, "  %-20s %s\n", f.name, f.title);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const Figure*> figures;
  bool smoke = false;
  std::string json;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json = argv[++i];
    } else if (const Figure* f = FindFigure(arg)) {
      figures.push_back(f);
    } else {
      return Usage(arg);
    }
  }
  if (figures.empty()) return Usage("");

  const Scale scale = smoke ? SmokeScale() : DefaultScale();
  std::vector<std::vector<Measurement>> runs(figures.size());
  for (size_t i = 0; i < figures.size(); ++i) {
    Status st = RunFigure(*figures[i], scale, &runs[i]);
    if (!st.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", figures[i]->name,
                   st.ToString().c_str());
      return 1;
    }
  }
  if (json.empty()) return 0;

  std::FILE* f = std::fopen(json.c_str(), "w");
  if (f == nullptr) {
    std::perror(json.c_str());
    return 1;
  }
  const bool many = figures.size() > 1;
  if (many) std::fprintf(f, "[\n");
  for (size_t i = 0; i < figures.size(); ++i) {
    WriteJson(f, figures[i]->name, runs[i]);
    if (many) std::fprintf(f, i + 1 < figures.size() ? ",\n" : "]\n");
  }
  if (std::fclose(f) != 0) {
    std::perror(json.c_str());
    return 1;
  }
  std::printf("JSON written to %s\n", json.c_str());
  return 0;
}
