// Reproduces Table III of the paper: the number of network-level constraint
// violations (one-to-one + cycle) among the candidate correspondences each
// matcher produces, per dataset. The paper's point — both matchers leave far
// too many violations for exhaustive expert review — is scale-independent,
// so the larger datasets run scaled down by default (SMN_BENCH_SCALE=1 for
// full size; see EXPERIMENTS.md).

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datasets/standard.h"
#include "sim/experiment.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace smn {
namespace {

struct Row {
  std::string dataset;
  size_t candidates[2] = {0, 0};
  size_t violations[2] = {0, 0};
  double precision[2] = {0.0, 0.0};
};

int Run() {
  bench::BenchReporter reporter("table3_violations");
  const double scale = bench::Scale();
  std::cout << "=== Table III: Constraint violations per matcher (scale="
            << FormatDouble(scale, 2) << ") ===\n";

  TablePrinter table({"Dataset", "#Corr(COMA)", "#Viol(COMA)", "Prec(COMA)",
                      "#Corr(AMC)", "#Viol(AMC)", "Prec(AMC)"});
  // BP is small enough to always run at full size (the paper's BP had 142
  // correspondences and 252/244 violations).
  const StandardDataset datasets[] = {MakeBpDataset(), MakePoDataset(),
                                      MakeUafDataset(), MakeWebFormDataset()};
  for (const StandardDataset& standard : datasets) {
    DatasetConfig config = standard.config;
    if (config.name != "BP") config = ScaleConfig(config, scale);

    Row row;
    row.dataset = config.name;
    Stopwatch watch;
    int column = 0;
    for (MatcherKind kind : {MatcherKind::kComaLike, MatcherKind::kAmcLike}) {
      Rng rng(2014);  // Same dataset instance for both matchers.
      const auto setup =
          BuildExperimentSetup(config, standard.vocabulary, kind, &rng);
      if (!setup.ok()) {
        std::cerr << "setup failed: " << setup.status() << "\n";
        return 1;
      }
      DynamicBitset all(setup->network.correspondence_count());
      for (CorrespondenceId c = 0; c < all.size(); ++c) all.Set(c);
      row.candidates[column] = setup->network.correspondence_count();
      std::vector<KernelViolation> violations;
      setup->constraints.AppendConflicts(all, &violations);
      row.violations[column] = violations.size();
      row.precision[column] = ScoreCandidates(*setup).precision;
      ++column;
    }
    reporter.AddEntry(
        row.dataset, watch.ElapsedMillis(),
        {{"candidates_coma", static_cast<double>(row.candidates[0])},
         {"violations_coma", static_cast<double>(row.violations[0])},
         {"precision_coma", row.precision[0]},
         {"candidates_amc", static_cast<double>(row.candidates[1])},
         {"violations_amc", static_cast<double>(row.violations[1])},
         {"precision_amc", row.precision[1]}});
    table.AddRow({row.dataset, std::to_string(row.candidates[0]),
                  std::to_string(row.violations[0]),
                  FormatDouble(row.precision[0], 2),
                  std::to_string(row.candidates[1]),
                  std::to_string(row.violations[1]),
                  FormatDouble(row.precision[1], 2)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference (violations, full size): BP 252/244, "
               "PO 10078/11320, UAF 40436/41256, WebForm 6032/6367.\n"
            << "Shape to check: violations far exceed what an expert can "
               "review exhaustively, for both matchers alike.\n";
  return reporter.Write() ? 0 : 1;
}

}  // namespace
}  // namespace smn

int main() { return smn::Run(); }
