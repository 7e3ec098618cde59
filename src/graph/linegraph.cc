#include "src/graph/linegraph.h"

#include <algorithm>

namespace treelocal {

LineGraph BuildLineGraph(const Graph& host, std::span<const int> edges) {
  const int n = host.NumNodes();
  std::vector<int> line_of(host.NumEdges(), -1);
  std::vector<int> degree(n, 0);  // incident subset edges per host node
  for (size_t i = 0; i < edges.size(); ++i) {
    line_of[edges[i]] = static_cast<int>(i);
    ++degree[host.EdgeU(edges[i])];
    ++degree[host.EdgeV(edges[i])];
  }
  size_t total = 0;
  for (int v = 0; v < n; ++v) {
    const size_t d = degree[v];
    total += d * (d - 1) / 2;
  }
  // Refuse an over-limit line graph before reserving its edge list (a
  // degree-46342 star center alone asks for 2^30 edges, 8.6 GB).
  internal::ValidateEdgeCount(static_cast<int64_t>(edges.size()),
                              static_cast<int64_t>(total));
  std::vector<std::pair<int, int>> ledges;
  ledges.reserve(total);
  std::vector<int> at_node;
  for (int v = 0; v < n; ++v) {
    if (degree[v] < 2) continue;
    at_node.clear();
    for (int e : host.IncidentEdges(v)) {
      if (line_of[e] >= 0) at_node.push_back(line_of[e]);
    }
    for (size_t i = 0; i < at_node.size(); ++i) {
      for (size_t j = i + 1; j < at_node.size(); ++j) {
        ledges.emplace_back(at_node[i], at_node[j]);
      }
    }
  }
  LineGraph lg;
  lg.graph =
      Graph::FromEdges(static_cast<int>(edges.size()), std::move(ledges));
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
