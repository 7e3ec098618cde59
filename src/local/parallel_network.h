#ifndef TREELOCAL_LOCAL_PARALLEL_NETWORK_H_
#define TREELOCAL_LOCAL_PARALLEL_NETWORK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/local/network.h"

namespace treelocal::local {

// The solo engine under its T-lane name: a Network whose round pass runs on
// `num_threads` persistent pool lanes (see Network for the sharding and the
// determinism contract — transcripts are bit-identical for every T).
// Composes with every Network-taking entry point unchanged.
class ParallelNetwork final : public Network {
 public:
  ParallelNetwork(GraphView graph, std::vector<int64_t> ids, int num_threads)
      : Network(graph, std::move(ids), num_threads, NetworkOptions{}) {}
  ParallelNetwork(GraphView graph, std::vector<int64_t> ids, int num_threads,
                  const NetworkOptions& options)
      : Network(graph, std::move(ids), num_threads, options) {}
};

}  // namespace treelocal::local

#endif  // TREELOCAL_LOCAL_PARALLEL_NETWORK_H_
