//===- perf_pipeline.cpp - Reproduces §7.2's runtime scaling --------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// §7.2 reports end-to-end learning times of ~5h (Java) / ~2h (Python) on a
// 28-core server over millions of files, and stresses that the runtime
// scales with the dataset size, not with the number of API classes. On our
// simulated corpus the absolute numbers are fractions of a second; the
// comparable shape is learn() growing linearly in the corpus size, i.e. a
// flat programs/s column.
//
// Each size is learned three times on one thread and the median run is
// shown phase by phase (PipelineStats). Corpus generation, which parses and
// lowers every program, is not timed. learn() is called directly, not
// through runPipeline(): a USPEC_ARTIFACT_CACHE hit there skips training.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <algorithm>
#include <array>

using namespace uspec;
using namespace uspec::bench;

namespace {

std::string ms(double Seconds) {
  return TextTable::formatReal(Seconds * 1e3, 2);
}

} // namespace

int main() {
  std::printf("USpec reproduction — §7.2 runtime (learn() vs corpus size)\n");
  std::printf("Paper: ~5h (Java) / ~2h (Python) on 28 cores for millions of "
              "files; runtime scales with the dataset size.\n");
  banner("§7.2 — learn() milliseconds by corpus size (Java, 1 thread, "
         "median of 3 runs)");

  LanguageProfile Profile = javaProfile();
  TextTable T;
  T.setHeader({"programs", "total ms", "analyze", "train", "extract",
               "score", "select", "programs/s"});
  for (size_t N : {100, 200, 400, 800}) {
    StringInterner Strings;
    GeneratorConfig Gen;
    Gen.NumPrograms = N;
    Gen.Seed = 0xBE7C4;
    GeneratedCorpus Corpus = generateCorpus(Profile, Gen, Strings);
    LearnerConfig Config;
    Config.Threads = 1;

    std::array<PipelineStats, 3> Runs;
    for (PipelineStats &Stats : Runs)
      Stats = USpecLearner(Strings, Config).learn(Corpus.Programs).Stats;
    std::sort(Runs.begin(), Runs.end(),
              [](const PipelineStats &A, const PipelineStats &B) {
                return A.TotalSeconds < B.TotalSeconds;
              });
    const PipelineStats &Median = Runs[1];
    T.addRow({std::to_string(N), ms(Median.TotalSeconds),
              ms(Median.AnalyzeSeconds), ms(Median.TrainSeconds),
              ms(Median.ExtractSeconds), ms(Median.ScoreSeconds),
              ms(Median.SelectSeconds),
              TextTable::formatReal(N / Median.TotalSeconds, 0)});
  }
  std::printf("%s", T.render().c_str());
  return 0;
}
