// Figure 5 (table) — "Distribution of I/O Aggregators".
//
// Reproduces the paper's worked example verbatim: 8 processes on 4
// dual-core nodes, two subgroups {P0..P3} and {P4..P7}, under block and
// cyclic process mappings. Block uses the full default node list (N0..N3);
// cyclic uses the explicit aggregator list {N0, N2, N3} — the paper's
// "each group first gets one I/O aggregator, the third one is then left to
// Subgroup 1" case.
#include <cstdio>
#include <numeric>
#include <vector>

#include "mpiio/aggregator_dist.hpp"
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace parcoll;
  using namespace parcoll::bench;
  // Structural table (no timed runs): --json still writes a valid document
  // with an empty points array, so tooling can treat every bench uniformly.
  BenchReport report("tab05_aggregator_dist", argc, argv);

  header("Figure 5", "distribution of I/O aggregators (paper's example)");

  const std::vector<int> groups{0, 0, 0, 0, 1, 1, 1, 1};
  std::vector<int> members(8);
  std::iota(members.begin(), members.end(), 0);
  const mpi::Comm comm(1, members);

  struct Case {
    const char* name;
    machine::Mapping mapping;
    std::vector<int> nodes;
  };
  const Case cases[] = {
      {"Block", machine::Mapping::Block, {0, 1, 2, 3}},
      {"Cyclic", machine::Mapping::Cyclic, {0, 2, 3}},
  };
  for (const Case& c : cases) {
    const machine::Topology topo(8, 2, c.mapping);
    std::printf("  %s mapping, aggregator nodes {", c.name);
    for (std::size_t i = 0; i < c.nodes.size(); ++i) {
      std::printf("%sN%d", i ? "," : "", c.nodes[i]);
    }
    std::printf("}\n");
    std::printf("    processes per node: ");
    for (int n = 0; n < topo.num_nodes(); ++n) {
      std::printf("N%d(", n);
      const auto ranks = topo.ranks_on_node(n);
      for (std::size_t i = 0; i < ranks.size(); ++i) {
        std::printf("%sP%d", i ? "," : "", ranks[i]);
      }
      std::printf(") ");
    }
    std::printf("\n");
    const auto result =
        mpiio::distribute_aggregators(topo, comm, c.nodes, groups, 2);
    for (std::size_t g = 0; g < result.size(); ++g) {
      std::printf("    SubGroup %zu aggregators: ", g + 1);
      for (int local : result[g]) {
        std::printf("N%d(P%d) ", topo.node_of(local), local);
      }
      std::printf("\n");
    }
  }
  footnote("paper block:  SG1 = N0(P0), N1(P2); SG2 = N2(P4), N3(P6)");
  footnote("paper cyclic: SG1 = N0(P0), N3(P3); SG2 = N2(P6)");
  return 0;
}
