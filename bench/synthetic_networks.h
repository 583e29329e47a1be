#ifndef SMN_BENCH_SYNTHETIC_NETWORKS_H_
#define SMN_BENCH_SYNTHETIC_NETWORKS_H_

#include <memory>
#include <string>
#include <vector>

#include "constraints/cycle.h"
#include "constraints/one_to_one.h"
#include "core/constraint_set.h"
#include "core/network.h"
#include "core/probabilistic_network.h"
#include "datasets/random_graph.h"
#include "util/rng.h"
#include "util/statusor.h"

namespace smn {
namespace bench {

struct SyntheticNetwork {
  Network network;
  ConstraintSet constraints;
};

/// Builds a network with exactly `target_candidates` random candidate
/// correspondences over an Erdős–Rényi interaction graph — the scaling setup
/// of Fig. 6 (the paper varies |C| from 2^7 to 2^12 over random graphs).
/// `schema_count` and the per-schema attribute count are derived from the
/// target so that candidate density per attribute stays realistic (~2).
inline SyntheticNetwork BuildScalingNetwork(size_t target_candidates,
                                            double edge_probability,
                                            uint64_t seed) {
  Rng rng(seed);
  const size_t schema_count = 12;
  const size_t attrs_per_schema =
      std::max<size_t>(4, target_candidates / (2 * schema_count));

  InteractionGraph graph(0);
  // Redraw until the graph has at least one edge (tiny probability issue).
  do {
    graph = ErdosRenyiGraph(schema_count, edge_probability, &rng);
  } while (graph.edge_count() == 0);

  NetworkBuilder builder;
  std::vector<std::vector<AttributeId>> attributes(schema_count);
  for (size_t s = 0; s < schema_count; ++s) {
    const SchemaId schema = builder.AddSchema("S" + std::to_string(s));
    for (size_t a = 0; a < attrs_per_schema; ++a) {
      attributes[s].push_back(
          builder.AddAttribute(schema, "a" + std::to_string(a)).value());
    }
  }
  for (const auto& [a, b] : graph.edges()) builder.AddEdge(a, b);

  size_t added = 0;
  size_t failures = 0;
  const auto& edges = graph.edges();
  while (added < target_candidates && failures < 64 * target_candidates) {
    const auto& [s1, s2] = edges[rng.Index(edges.size())];
    const AttributeId a = attributes[s1][rng.Index(attrs_per_schema)];
    const AttributeId b = attributes[s2][rng.Index(attrs_per_schema)];
    if (builder.AddCorrespondence(a, b, rng.UniformDouble()).ok()) {
      ++added;
    } else {
      ++failures;  // Duplicate pair; try again.
    }
  }

  Network network = builder.Build().value();
  ConstraintSet constraints;
  constraints.Add(std::make_unique<OneToOneConstraint>());
  constraints.Add(std::make_unique<CycleConstraint>());
  constraints.Compile(network).ok();
  return SyntheticNetwork{std::move(network), std::move(constraints)};
}

/// Small-|C| network for the exact-vs-sampled comparison of Fig. 7: three
/// schemas, complete graph, exactly `candidates` random correspondences.
/// The default attribute count keeps the pair space tight so that chains
/// with in-C closings (i.e. closable triangles) actually occur.
inline SyntheticNetwork BuildTinyNetwork(size_t candidates, uint64_t seed,
                                         size_t attrs_per_schema = 0) {
  Rng rng(seed);
  const size_t schema_count = 3;
  if (attrs_per_schema == 0) {
    attrs_per_schema = std::max<size_t>(3, candidates / 3);
  }
  NetworkBuilder builder;
  std::vector<std::vector<AttributeId>> attributes(schema_count);
  for (size_t s = 0; s < schema_count; ++s) {
    const SchemaId schema = builder.AddSchema("S" + std::to_string(s));
    for (size_t a = 0; a < attrs_per_schema; ++a) {
      attributes[s].push_back(
          builder.AddAttribute(schema, "a" + std::to_string(a)).value());
    }
  }
  builder.AddCompleteGraph();
  size_t added = 0;
  while (added < candidates) {
    const SchemaId s1 = static_cast<SchemaId>(rng.Index(schema_count));
    SchemaId s2 = static_cast<SchemaId>(rng.Index(schema_count));
    if (s1 == s2) continue;
    const AttributeId a = attributes[s1][rng.Index(attrs_per_schema)];
    const AttributeId b = attributes[s2][rng.Index(attrs_per_schema)];
    if (builder.AddCorrespondence(a, b, rng.UniformDouble()).ok()) ++added;
  }
  Network network = builder.Build().value();
  ConstraintSet constraints;
  constraints.Add(std::make_unique<OneToOneConstraint>());
  constraints.Add(std::make_unique<CycleConstraint>());
  constraints.Compile(network).ok();
  return SyntheticNetwork{std::move(network), std::move(constraints)};
}

/// Exact ground truth for a small network, through the engine's member-exact
/// path: every component has at most |C| members and is enumerated, and the
/// view cap admits a cross-product of up to 2^20 instances, so samples() is
/// the complete instance space Ω (each instance once) and probabilities()
/// are the exact Equation 1 marginals. Fails with FailedPrecondition when Ω
/// is larger. `synthetic` must outlive the result.
inline StatusOr<ProbabilisticNetwork> BuildExactNetwork(
    const SyntheticNetwork& synthetic) {
  ProbabilisticNetworkOptions options;
  options.store.exact_threshold = synthetic.network.correspondence_count();
  options.sample_view_cap = size_t{1} << 20;
  Rng rng(0);  // Split once by Create; enumeration draws nothing from it.
  SMN_ASSIGN_OR_RETURN(
      ProbabilisticNetwork exact,
      ProbabilisticNetwork::Create(synthetic.network, synthetic.constraints,
                                   options, &rng));
  if (!exact.exhausted()) {
    return Status::FailedPrecondition(
        "BuildExactNetwork: instance space exceeds the view cap");
  }
  return exact;
}

/// Multi-component network for the incremental-reconciliation bench:
/// `clusters` disjoint schema groups (complete graph within a cluster, no
/// edges across), each holding ~`candidates_per_cluster` random candidates.
/// Mirrors testing::MakeClusteredNetwork (tests/testing/test_networks.cc) —
/// bench/ and tests/ deliberately do not link each other's fixtures; keep
/// the cluster geometry of the two in sync.
/// Correspondences in different clusters can never share a constraint, so
/// the candidate set provably decomposes into at least `clusters`
/// constraint-connected components — the setting where re-sampling only the
/// touched component pays off most visibly.
inline SyntheticNetwork BuildClusteredNetwork(size_t clusters,
                                              size_t candidates_per_cluster,
                                              uint64_t seed) {
  Rng rng(seed);
  const size_t schemas_per_cluster = 3;
  const size_t attrs_per_schema =
      std::max<size_t>(3, candidates_per_cluster / 4);

  NetworkBuilder builder;
  std::vector<std::vector<std::vector<AttributeId>>> attributes(clusters);
  std::vector<std::vector<SchemaId>> schemas(clusters);
  for (size_t k = 0; k < clusters; ++k) {
    attributes[k].resize(schemas_per_cluster);
    for (size_t s = 0; s < schemas_per_cluster; ++s) {
      const SchemaId schema = builder.AddSchema(
          "K" + std::to_string(k) + "S" + std::to_string(s));
      schemas[k].push_back(schema);
      for (size_t a = 0; a < attrs_per_schema; ++a) {
        attributes[k][s].push_back(
            builder.AddAttribute(schema, "a" + std::to_string(a)).value());
      }
    }
  }
  // All schemas must exist before the first AddEdge (the builder sizes the
  // interaction graph then); cluster-local complete graphs, nothing across.
  for (size_t k = 0; k < clusters; ++k) {
    for (size_t s1 = 0; s1 < schemas_per_cluster; ++s1) {
      for (size_t s2 = s1 + 1; s2 < schemas_per_cluster; ++s2) {
        builder.AddEdge(schemas[k][s1], schemas[k][s2]).ok();
      }
    }
  }
  for (size_t k = 0; k < clusters; ++k) {
    size_t added = 0;
    size_t failures = 0;
    while (added < candidates_per_cluster &&
           failures < 64 * candidates_per_cluster) {
      const size_t s1 = rng.Index(schemas_per_cluster);
      size_t s2 = rng.Index(schemas_per_cluster);
      if (s1 == s2) {
        ++failures;
        continue;
      }
      const AttributeId a = attributes[k][s1][rng.Index(attrs_per_schema)];
      const AttributeId b = attributes[k][s2][rng.Index(attrs_per_schema)];
      if (builder.AddCorrespondence(a, b, rng.UniformDouble()).ok()) {
        ++added;
      } else {
        ++failures;  // Duplicate pair; try again.
      }
    }
  }
  Network network = builder.Build().value();
  ConstraintSet constraints;
  constraints.Add(std::make_unique<OneToOneConstraint>());
  constraints.Add(std::make_unique<CycleConstraint>());
  constraints.Compile(network).ok();
  return SyntheticNetwork{std::move(network), std::move(constraints)};
}

}  // namespace bench
}  // namespace smn

#endif  // SMN_BENCH_SYNTHETIC_NETWORKS_H_
