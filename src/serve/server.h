#ifndef TREELOCAL_SERVE_SERVER_H_
#define TREELOCAL_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/dispatch.h"
#include "src/serve/protocol.h"
#include "src/serve/registry.h"

namespace treelocal::serve {

// treelocald's blocking-socket front end: a TCP listener on localhost, one
// thread per connection, one length-prefixed frame per request. Every
// engine run happens on the Dispatcher thread — connection threads only
// parse, admit graphs (building each one's engine), enqueue, and block on
// ticket completion — so a slow or hostile client cannot stall another
// client's solve.
//
// Failure containment (pinned by the fuzz tests): a frame that fails the
// header check (bad magic, oversize length) poisons the stream, so the
// daemon answers with an error frame and closes THAT connection; a
// well-framed payload that fails request decoding gets an error response
// on a connection that stays open. Neither path touches the dispatcher, so
// no queue slot is ever leaked, and the daemon itself never exits on
// malformed input.
class Server {
 public:
  struct Options {
    int port = 0;  // 0 = pick an ephemeral port (see port())
    int max_batch = 16;
    int slice_rounds = 64;
    // Lane count of every resident graph's engine, on which all requests
    // run (see Registry::Options); bit-identical answers for every value.
    int engine_threads = 1;
    int max_queue = 1024;  // admission cap (see Dispatcher::Options)
    // Graph-residency quota (see Registry::Options): 0 = unlimited. A
    // registration that cannot be admitted even after idle-LRU eviction is
    // answered kRejected.
    size_t max_graphs = 0;
    size_t max_graph_bytes = 0;
    // Forwarded to every resident graph's engine (bench negative control;
    // see Registry::Options).
    support::FaultInjector* fault = nullptr;
  };

  explicit Server(const Options& options);
  ~Server();

  // Binds, listens, and starts accepting. False (with *error) on bind
  // failure.
  bool Start(std::string* error);

  // The bound port (valid after Start).
  int port() const { return port_; }

  // Blocks until a kShutdown request arrives or Stop() is called from
  // another thread. Returns whether shutdown was requested remotely.
  bool Wait();

  // Full stop: closes the listener, unblocks and joins every connection,
  // stops the dispatcher. Idempotent; safe after Wait().
  void Stop();

  // In-process view for tests.
  ServerStats StatsSnapshot() const;

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Conn* conn);
  // Handles one decoded request; returns the response payload.
  std::vector<uint8_t> HandleRequest(const Request& req);
  void ReapFinishedLocked();

  Options options_;
  Registry registry_;
  std::unique_ptr<Dispatcher> dispatcher_;

  // Atomic: the accept loop reads it while Stop() closes and clears it.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::condition_variable cv_shutdown_;
  std::list<Conn> conns_;
  bool stopping_ = false;
  bool shutdown_requested_ = false;

  std::atomic<uint64_t> protocol_errors_{0};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace treelocal::serve

#endif  // TREELOCAL_SERVE_SERVER_H_
