// Standalone transcript verifier for engine snapshots (src/local/snapshot.h).
//
// The snapshot format is self-contained — it carries the full edge list and
// id assignment — so this tool can validate and REPLAY a checkpointed run
// with no access to the original driver, graph file, or RNG seed. Three
// modes:
//
//   transcript_verify record <out.snap> [--family F] [--n N] [--seed S]
//                     [--k K] [--pause R] [--engine E] [--threads T]
//                     [--digest-messages]
//       Generate a tree workload (rake-compress with parameter k), run it to
//       round R (or to completion when R < 0, the default), and write the
//       checkpoint. Prints the snapshot summary.
//
//   transcript_verify check <in.snap>
//       Parse and fully validate the snapshot: file integrity hash, header,
//       section bounds, endpoint/port/halt ranges, and the per-round digest
//       chain linkage (digest[r] = ChainDigest(digest[r-1], active, sent,
//       msg_acc) from the recorded seed). Exit 0 iff valid.
//
//   transcript_verify replay <in.snap> --k K [--engine E] [--threads T]
//                     [--max-rounds M] [--expect-digest 0xH]
//       Reconstruct the graph from the snapshot, resume the run on a fresh
//       engine, and drive it to completion. Prints the final rounds /
//       messages / digest; with --expect-digest, exit 0 iff the final chain
//       digest matches (the CI digest gate compares a replayed-from-round-R
//       run against the uninterrupted recording this way).
//
// Engines: --engine network (default) | parallel | reference, all driven
// through the local::Engine base (Run/RunUntil, Checkpoint, Resume, the
// digest chain). The snapshot is canonical, so any engine x thread-count
// combination can pick up any recording — replaying on a
// different engine than the recorder, in either direction, is exactly the
// cross-engine resume contract the tests and the CI gate enforce.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/rake_compress.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/local/network.h"
#include "src/local/parallel_network.h"
#include "src/local/reference_network.h"
#include "src/local/snapshot.h"

namespace {

using treelocal::Graph;
using treelocal::local::ReadSnapshot;
using treelocal::local::ReconstructGraph;
using treelocal::local::SnapshotData;
using treelocal::local::SnapshotEngineKind;

struct Options {
  std::string mode;
  std::string path;
  std::string family = "uniform";
  std::string engine = "network";
  int n = 1 << 12;
  uint64_t seed = 1;
  int k = 2;
  int pause = -1;
  int threads = 2;
  int max_rounds = -1;  // < 0: derive from the Lemma 9 bound
  bool digest_messages = false;
  bool has_expect_digest = false;
  uint64_t expect_digest = 0;
};

[[noreturn]] void Usage(const std::string& err) {
  if (!err.empty()) std::cerr << "error: " << err << "\n";
  std::cerr << "usage: transcript_verify record <out.snap> [--family F] "
               "[--n N] [--seed S] [--k K]\n"
               "                        [--pause R] [--engine E] [--threads T] "
               "[--digest-messages]\n"
               "       transcript_verify check <in.snap>\n"
               "       transcript_verify replay <in.snap> --k K [--engine E] "
               "[--threads T]\n"
               "                        [--max-rounds M] [--expect-digest "
               "0xHEX]\n"
               "families: path star balanced3 balanced8 uniform recursive "
               "caterpillar binary\n"
               "engines: network parallel reference\n";
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opt;
  if (argc < 3) Usage("mode and snapshot path required");
  opt.mode = argv[1];
  opt.path = argv[2];
  if (opt.mode != "record" && opt.mode != "check" && opt.mode != "replay") {
    Usage("unknown mode '" + opt.mode + "'");
  }
  auto need = [&](int i) -> std::string {
    if (i + 1 >= argc) Usage(std::string(argv[i]) + " needs a value");
    return argv[i + 1];
  };
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--family") {
      opt.family = need(i++);
    } else if (a == "--engine") {
      opt.engine = need(i++);
    } else if (a == "--n") {
      opt.n = std::stoi(need(i++));
    } else if (a == "--seed") {
      opt.seed = std::stoull(need(i++));
    } else if (a == "--k") {
      opt.k = std::stoi(need(i++));
    } else if (a == "--pause") {
      opt.pause = std::stoi(need(i++));
    } else if (a == "--threads") {
      opt.threads = std::stoi(need(i++));
    } else if (a == "--max-rounds") {
      opt.max_rounds = std::stoi(need(i++));
    } else if (a == "--digest-messages") {
      opt.digest_messages = true;
    } else if (a == "--expect-digest") {
      opt.has_expect_digest = true;
      opt.expect_digest = std::stoull(need(i++), nullptr, 0);
    } else {
      Usage("unknown flag '" + a + "'");
    }
  }
  if (opt.engine != "network" && opt.engine != "parallel" &&
      opt.engine != "reference") {
    Usage("unknown engine '" + opt.engine + "'");
  }
  return opt;
}

treelocal::TreeFamily FamilyByName(const std::string& name) {
  for (treelocal::TreeFamily f : treelocal::AllTreeFamilies()) {
    if (treelocal::TreeFamilyName(f) == name) return f;
  }
  Usage("unknown tree family '" + name + "'");
}

const char* KindName(SnapshotEngineKind kind) {
  switch (kind) {
    case SnapshotEngineKind::kNetwork: return "network";
    case SnapshotEngineKind::kReferenceNetwork: return "reference";
  }
  return "?";
}

std::string Hex(uint64_t x) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

void PrintSummary(const SnapshotData& snap) {
  std::cout << "engine=" << KindName(snap.engine_kind) << " n=" << snap.n
            << " m=" << snap.m << " round=" << snap.round
            << " finished=" << (snap.finished ? 1 : 0)
            << " digest_messages=" << (snap.digest_messages ? 1 : 0) << "\n";
  std::cout << "graph_hash=" << Hex(snap.graph_hash)
            << " ids_hash=" << Hex(snap.ids_hash) << "\n";
  const SnapshotData::RunSection& run = snap.run;
  const uint64_t last = run.rounds.empty() ? treelocal::support::kDigestSeed
                                           : run.rounds.back().digest;
  std::cout << "messages=" << run.messages_delivered
            << " rounds_recorded=" << run.rounds.size()
            << " deliverable=" << run.deliverable.size()
            << " last_digest=" << Hex(last) << "\n";
}

// Drives the named engine through the shared local::Engine surface.
int RunOnEngine(treelocal::local::Engine& net, const Options& opt,
                treelocal::local::Algorithm& alg, int max_rounds, bool resume,
                const std::string& in_path) {
  if (resume) {
    std::ifstream in(in_path, std::ios::binary);
    if (!in) {
      std::cerr << "error: cannot open '" << in_path << "'\n";
      return 1;
    }
    net.Resume(in);
  }
  int rounds;
  if (opt.mode == "record" && opt.pause >= 0) {
    rounds = net.RunUntil(alg, max_rounds, opt.pause);
    if (!net.paused()) {
      std::cerr << "error: run finished at round " << rounds
                << " before reaching --pause " << opt.pause << "\n";
      return 1;
    }
  } else {
    rounds = net.Run(alg, max_rounds);
  }
  if (opt.mode == "record") {
    std::ofstream out(opt.path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot open '" << opt.path << "' for writing\n";
      return 1;
    }
    net.Checkpoint(out);
    out.flush();
    if (!out) {
      std::cerr << "error: write to '" << opt.path << "' failed\n";
      return 1;
    }
  }
  std::cout << "rounds=" << rounds << " messages=" << net.messages_delivered()
            << " paused=" << (net.paused() ? 1 : 0)
            << " final_digest=" << Hex(net.last_digest()) << "\n";
  if (opt.has_expect_digest && net.last_digest() != opt.expect_digest) {
    std::cerr << "DIGEST MISMATCH: expected " << Hex(opt.expect_digest)
              << ", replay produced " << Hex(net.last_digest()) << "\n";
    return 1;
  }
  return 0;
}

// Dispatches on --engine; `resume` replays `in_path` instead of a fresh run.
int Drive(const Graph& g, const std::vector<int64_t>& ids, const Options& opt,
          bool resume, const std::string& in_path, bool digest_messages) {
  treelocal::local::NetworkOptions nopt;
  nopt.digest_messages = digest_messages;
  std::unique_ptr<treelocal::local::Algorithm> alg =
      treelocal::MakeRakeCompressAlgorithm(opt.k);
  int max_rounds = opt.max_rounds;
  if (max_rounds < 0) {
    // The drivers' Lemma 9 budget: 3 rounds per iteration plus slack.
    const int bound =
        treelocal::RakeCompressIterationBound(std::max(g.NumNodes(), 1), opt.k);
    max_rounds = 3 * (2 * bound + 8);
  }
  std::unique_ptr<treelocal::local::Engine> net;
  if (opt.engine == "parallel") {
    net = std::make_unique<treelocal::local::ParallelNetwork>(
        g, ids, opt.threads, nopt);
  } else if (opt.engine == "reference") {
    net = std::make_unique<treelocal::local::ReferenceNetwork>(g, ids, nopt);
  } else {
    net = std::make_unique<treelocal::local::Network>(g, ids, nopt);
  }
  return RunOnEngine(*net, opt, *alg, max_rounds, resume, in_path);
}

int Record(const Options& opt) {
  const Graph g =
      treelocal::MakeTree(FamilyByName(opt.family), opt.n, opt.seed);
  std::vector<int64_t> ids(g.NumNodes());
  std::iota(ids.begin(), ids.end(), 0);
  const int rc = Drive(g, ids, opt, /*resume=*/false, "", opt.digest_messages);
  if (rc != 0) return rc;
  std::ifstream in(opt.path, std::ios::binary);
  PrintSummary(ReadSnapshot(in));  // round-trip check of what we just wrote
  return 0;
}

int Check(const Options& opt) {
  std::ifstream in(opt.path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot open '" << opt.path << "'\n";
    return 1;
  }
  const SnapshotData snap = ReadSnapshot(in);  // full validation
  std::cout << "OK " << opt.path << "\n";
  PrintSummary(snap);
  return 0;
}

int Replay(const Options& opt) {
  std::ifstream in(opt.path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot open '" << opt.path << "'\n";
    return 1;
  }
  const SnapshotData snap = ReadSnapshot(in);
  in.close();
  const Graph g = ReconstructGraph(snap);
  // Everything the engine needs travels in the file: graph, ids, and the
  // digest level. Only the algorithm parameter (--k) is external.
  return Drive(g, snap.ids, opt, /*resume=*/true, opt.path,
               snap.digest_messages);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Parse(argc, argv);
  try {
    if (opt.mode == "record") return Record(opt);
    if (opt.mode == "check") return Check(opt);
    return Replay(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
