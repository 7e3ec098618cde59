#include "src/graph/linegraph.h"

#include <algorithm>

namespace treelocal {

LineGraph BuildLineGraph(const Graph& host) {
  std::vector<std::pair<int, int>> edges;
  size_t total = 0;
  for (int v = 0; v < host.NumNodes(); ++v) {
    size_t d = host.Degree(v);
    total += d * (d - 1) / 2;
  }
  edges.reserve(total);
  for (int v = 0; v < host.NumNodes(); ++v) {
    auto inc = host.IncidentEdges(v);
    for (size_t i = 0; i < inc.size(); ++i) {
      for (size_t j = i + 1; j < inc.size(); ++j) {
        edges.emplace_back(inc[i], inc[j]);
      }
    }
  }
  LineGraph lg;
  lg.graph = Graph::FromEdges(host.NumEdges(), std::move(edges));
  return lg;
}

std::vector<int64_t> LineGraphIds(const Graph& host,
                                  std::span<const int> edges,
                                  const std::vector<int64_t>& host_ids) {
  // Each edge is identified by the ordered pair of its endpoint IDs, unique
  // in a simple graph. Ranking the pairs gives distinct IDs without risking
  // 64-bit overflow from a pairing function; the flat key
  // (min_id << 64) | max_id ranks them lexicographically (IDs are
  // non-negative int64s, so the packing is order-preserving). Dense IDs
  // matter: when the line graph is too dense for Linial to make progress
  // (q^2 > m), the fallback sweep over the ID space then costs exactly m+1
  // rounds rather than an artifact of sparse IDs.
  const int m = static_cast<int>(edges.size());
  struct Keyed {
    unsigned __int128 key;
    int i;
  };
  std::vector<Keyed> keyed(m);
  for (int i = 0; i < m; ++i) {
    auto [u, v] = host.Endpoints(edges[i]);
    uint64_t a = static_cast<uint64_t>(host_ids[u]);
    uint64_t b = static_cast<uint64_t>(host_ids[v]);
    if (a > b) std::swap(a, b);
    keyed[i].key = (static_cast<unsigned __int128>(a) << 64) | b;
    keyed[i].i = i;
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const Keyed& x, const Keyed& y) { return x.key < y.key; });
  std::vector<int64_t> ids(m);
  for (int rank = 0; rank < m; ++rank) ids[keyed[rank].i] = rank + 1;
  return ids;
}

}  // namespace treelocal
