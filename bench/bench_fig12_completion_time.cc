// Reproduces Figure 12: time required for completing one path, with and
// without the Euclidean nearest-neighbor replacement, AR vs SSAR. The
// replacement is exercised by extending the path with a complete table.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "restore/incompleteness_join.h"
#include "restore/path_selection.h"
#include "restore/snapshot_index.h"

namespace restore {
namespace bench {
namespace {

int Run() {
  FigureJson json("fig12");
  std::printf("# Figure 12: completion time per path (seconds)\n");
  std::printf("setup,model,nn_replacement,path_len,completion_seconds\n");
  const double housing_scale = FullGrids() ? 0.5 : 0.2;
  const double movies_scale = FullGrids() ? 0.4 : 0.12;
  std::vector<CompletionSetup> setups = HousingSetups();
  for (const auto& m : MovieSetups()) setups.push_back(m);
  for (const auto& setup : setups) {
    const double scale =
        setup.dataset == "housing" ? housing_scale : movies_scale;
    auto run = MakeSetupRun(setup.name, 0.5, 0.5, scale, 1500);
    if (!run.ok()) continue;
    auto paths = EnumerateCompletionPaths(run->incomplete, run->annotation,
                                          setup.removed_table, 5);
    if (paths.empty()) continue;
    // Variant with replacement: extend the path by one complete neighbor of
    // the target (forces synthesize + Euclidean replace on the extra hop).
    std::vector<std::string> extended = paths[0];
    for (const auto& next :
         run->incomplete.Neighbors(setup.removed_table)) {
      if (run->annotation.IsComplete(next) &&
          std::find(extended.begin(), extended.end(), next) ==
              extended.end()) {
        extended.push_back(next);
        break;
      }
    }
    for (bool ssar : {false, true}) {
      PathModelConfig config = BenchEngineConfig(ssar).model;
      for (const auto& [label, path] :
           std::vector<std::pair<const char*, std::vector<std::string>>>{
               {"no", paths[0]}, {"yes", extended}}) {
        if (std::string(label) == "yes" && extended.size() == paths[0].size()) {
          continue;  // no complete neighbor available
        }
        auto model =
            PathModel::Train(run->incomplete, run->annotation, path, config);
        if (!model.ok()) continue;
        // A call-local index: its slots fill inside the timed completion,
        // as a one-shot completion pays for them.
        const SnapshotIndex index(run->incomplete);
        IncompletenessJoinExecutor exec(&index, &run->annotation);
        Rng rng(1501);
        Timer timer;
        auto completion = exec.CompletePathJoin(**model, rng);
        if (!completion.ok()) {
          std::fprintf(stderr, "%s: %s\n", setup.name.c_str(),
                       completion.status().ToString().c_str());
          continue;
        }
        std::printf("%s,%s,%s,%zu,%.3f\n", setup.name.c_str(),
                    ssar ? "SSAR" : "AR", label, path.size(),
                    timer.ElapsedSeconds());
        json.Add(StrFormat("%s/%s/replace=%s", setup.name.c_str(),
                           ssar ? "SSAR" : "AR", label),
                 {{"path_len", static_cast<double>(path.size())},
                  {"completion_seconds", timer.ElapsedSeconds()}});
        std::fflush(stdout);
      }
    }
  }
  if (Status s = json.Write(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace restore

int main() { return restore::bench::Run(); }
