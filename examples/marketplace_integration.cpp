// Marketplace integration: the paper's motivating scenario at realistic
// scale. Several e-business partners want to interconnect their purchase
// order schemas. We generate a PO-style schema network, run the COMA-like
// matcher over every schema pair, attach the network constraints, spend a
// limited expert budget guided by information gain, and instantiate a
// trusted matching — reporting precision/recall against the ground truth at
// each stage.
//
// Build & run:  ./build/examples/marketplace_integration [budget-fraction]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/instantiation.h"
#include "core/reconciler.h"
#include "datasets/standard.h"
#include "sim/experiment.h"
#include "sim/oracle.h"
#include "util/string_util.h"

using namespace smn;

int main(int argc, char** argv) {
  const double budget_fraction = argc > 1 ? std::atof(argv[1]) : 0.10;

  // A marketplace of six partners exchanging purchase orders (PO scaled to
  // example size; pass SMN scale via the bench harness for the full thing).
  StandardDataset po = MakePoDataset();
  po.config = ScaleConfig(po.config, 0.35);
  po.config.name = "Marketplace";

  Rng rng(7);
  const auto setup = BuildExperimentSetup(po.config, po.vocabulary,
                                          MatcherKind::kComaLike, &rng);
  if (!setup.ok()) {
    std::cerr << setup.status() << "\n";
    return 1;
  }
  const size_t total = setup->network.correspondence_count();
  DynamicBitset all(total);
  for (CorrespondenceId c = 0; c < total; ++c) all.Set(c);
  std::vector<KernelViolation> violations;
  setup->constraints.AppendConflicts(all, &violations);

  std::cout << "Schemas: " << setup->network.schema_count()
            << ", attributes: " << setup->network.attribute_count()
            << ", candidate correspondences: " << total << "\n";
  std::cout << "Constraint violations in the raw matcher output: "
            << violations.size() << "\n";
  const PrecisionRecall raw = ScoreCandidates(*setup);
  std::cout << "Raw candidate quality: precision "
            << FormatDouble(raw.precision, 3) << ", recall "
            << FormatDouble(raw.recall, 3) << "\n\n";

  // Probabilistic matching network + expert simulation.
  ProbabilisticNetworkOptions options;
  options.store.target_samples = 500;
  options.store.min_samples = 100;
  auto pmn = ProbabilisticNetwork::Create(setup->network, setup->constraints,
                                          options, &rng);
  if (!pmn.ok()) {
    std::cerr << pmn.status() << "\n";
    return 1;
  }
  std::cout << "Initial network uncertainty: "
            << FormatDouble(pmn->Uncertainty(), 1) << " bits\n";

  Oracle oracle(setup->oracle_truth);
  auto strategy = MakeStrategy(StrategyKind::kInformationGain);
  Reconciler reconciler(&*pmn, strategy.get(), oracle.AsCallback());
  ReconcileGoal goal;
  goal.max_assertions =
      static_cast<size_t>(budget_fraction * static_cast<double>(total));
  const auto trace = reconciler.Run(goal, &rng);
  if (!trace.ok()) {
    std::cerr << trace.status() << "\n";
    return 1;
  }
  std::cout << "Expert asserted " << trace->steps.size()
            << " correspondences (" << FormatDouble(100 * budget_fraction, 0)
            << "% budget); uncertainty now "
            << FormatDouble(pmn->Uncertainty(), 1) << " bits\n\n";

  // Instantiate the trusted matching available right now.
  const Instantiator instantiator;
  const auto result = instantiator.Instantiate(*pmn, &rng);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  const PrecisionRecall quality = ScoreSelection(
      result->instance, setup->truth_candidates, setup->truth_total);
  std::cout << "Instantiated matching: " << result->instance.Count()
            << " correspondences, repair distance " << result->repair_distance
            << "\n";
  std::cout << "Quality vs ground truth: precision "
            << FormatDouble(quality.precision, 3) << ", recall "
            << FormatDouble(quality.recall, 3) << ", F1 "
            << FormatDouble(quality.f1, 3) << "\n";
  std::cout << "\nThe matching satisfies every one-to-one and cycle "
               "constraint and can be used\nfor cross-partner queries "
               "immediately; further assertions keep improving it.\n";
  return 0;
}
