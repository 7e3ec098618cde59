#include "src/serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace treelocal::serve {
namespace {

bool ReadFull(int fd, uint8_t* buf, size_t n) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) return false;  // orderly EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

bool WriteFull(int fd, const uint8_t* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

bool SendFrame(int fd, const std::vector<uint8_t>& payload) {
  const std::vector<uint8_t> frame = EncodeFrame(payload);
  return WriteFull(fd, frame.data(), frame.size());
}

}  // namespace

Server::Server(const Options& options)
    : options_(options),
      registry_(Registry::Options{options.max_graphs, options.max_graph_bytes,
                                  options.engine_threads, options.fault}) {
  Dispatcher::Options dopt;
  dopt.max_batch = options.max_batch;
  dopt.slice_rounds = options.slice_rounds;
  dopt.max_queue = options.max_queue;
  dispatcher_ = std::make_unique<Dispatcher>(&registry_, dopt);
  start_time_ = std::chrono::steady_clock::now();
}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::listen(listen_fd_, 64) < 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed: stopping
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    ReapFinishedLocked();
    conns_.emplace_back();
    Conn* conn = &conns_.back();
    conn->fd = fd;
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void Server::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load()) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ServeConnection(Conn* conn) {
  const int fd = conn->fd;
  std::vector<uint8_t> payload;
  for (;;) {
    uint8_t header[kFrameHeaderBytes];
    if (!ReadFull(fd, header, sizeof header)) break;
    uint32_t len = 0;
    const Status hs = DecodeFrameHeader(header, sizeof header, &len);
    if (hs != Status::kOk) {
      // The stream offset is no longer trustworthy: answer and hang up.
      protocol_errors_.fetch_add(1);
      SendFrame(fd, EncodeError(hs, StatusName(hs)));
      break;
    }
    payload.resize(len);
    if (len > 0 && !ReadFull(fd, payload.data(), len)) break;
    Request req;
    const Status rs = DecodeRequest(payload.data(), len, &req);
    if (rs != Status::kOk) {
      // Framing is intact: report and keep serving this connection.
      protocol_errors_.fetch_add(1);
      if (!SendFrame(fd, EncodeError(rs, StatusName(rs)))) break;
      continue;
    }
    if (!SendFrame(fd, HandleRequest(req))) break;
  }
  ::close(fd);
  conn->done.store(true);
}

std::vector<uint8_t> Server::HandleRequest(const Request& req) {
  switch (req.op) {
    case Op::kPing:
      return EncodePingResponse();
    case Op::kRegisterGraph: {
      bool fresh = false;
      Registry::AdmitResult result = Registry::AdmitResult::kInvalid;
      std::string error;
      const std::shared_ptr<const ResidentGraph> g =
          registry_.Register(req.n, req.edges, req.ids, &fresh, &result,
                             &error);
      if (g == nullptr) {
        // Over-quota is a retry signal (evictable residency may free up),
        // distinct from a structurally bad graph.
        return EncodeError(result == Registry::AdmitResult::kOverQuota
                               ? Status::kRejected
                               : Status::kBadGraph,
                           error);
      }
      return EncodeRegisterGraphResponse(g->key, g->graph.NumNodes(),
                                         g->graph.NumEdges(), fresh);
    }
    case Op::kSolve: {
      std::shared_ptr<const ResidentGraph> g = registry_.Find(req.graph_key);
      if (g == nullptr) {
        return EncodeError(Status::kUnknownGraph, "graph not registered");
      }
      uint64_t ticket = 0;
      std::string error;
      const Status s =
          dispatcher_->Submit(std::move(g), req.spec, &ticket, &error);
      if (s != Status::kOk) return EncodeError(s, error);
      return EncodeSolveResponse(ticket);
    }
    case Op::kFetch: {
      TicketState state;
      SolveResult result;
      std::string why;
      if (!dispatcher_->Fetch(req.ticket, req.block, &state, &result, &why)) {
        return EncodeError(Status::kUnknownTicket, "no such ticket");
      }
      return EncodeFetchResponse(state, result, why);
    }
    case Op::kCancel: {
      TicketState state;
      if (!dispatcher_->Cancel(req.ticket, &state)) {
        return EncodeError(Status::kUnknownTicket, "no such ticket");
      }
      return EncodeCancelResponse(state);
    }
    case Op::kStats:
      return EncodeStatsResponse(StatsSnapshot());
    case Op::kShutdown: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_requested_ = true;
      }
      cv_shutdown_.notify_all();
      return EncodeShutdownResponse();
    }
  }
  return EncodeError(Status::kInternal, "unhandled opcode");
}

ServerStats Server::StatsSnapshot() const {
  ServerStats stats;
  stats.graphs = registry_.size();
  stats.evicted = registry_.evictions();
  dispatcher_->FillStats(&stats);
  stats.protocol_errors = protocol_errors_.load();
  stats.uptime_micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  return stats;
}

bool Server::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_shutdown_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
  return shutdown_requested_;
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_shutdown_.notify_all();
  if (listen_fd_ >= 0) {
    // shutdown() unblocks accept() on every platform we build on; close()
    // alone does not on Linux.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock connection reads before stopping the dispatcher so threads
  // parked in blocking Fetch see the dispatcher wakeup, reply, then hit
  // the dead socket.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Conn& c : conns_) {
      if (!c.done.load()) ::shutdown(c.fd, SHUT_RDWR);
    }
  }
  dispatcher_->Stop();
  for (;;) {
    std::list<Conn> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_.empty()) break;
      finished.splice(finished.begin(), conns_);
    }
    for (Conn& c : finished) {
      if (c.thread.joinable()) c.thread.join();
    }
  }
}

}  // namespace treelocal::serve
