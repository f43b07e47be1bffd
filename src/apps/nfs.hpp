// NFS-like block file service with client-side disk caching.
//
// The paper's LSS runs against database files on an NFS-mounted volume
// with "transparent user-level client-side disk caching that exploits the
// temporal locality of references across runs" (Section IV-C).  Table IV's
// cold/warm split is entirely this effect: the first image pays
// synchronous block fetches over the virtual WAN; later images hit the
// local cache.  The client issues one synchronous RPC per block — the
// latency-bound access pattern that produces the paper's cold-read times.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "net/framed_stream.hpp"
#include "net/host.hpp"

namespace ipop::apps {

struct NfsServerStats {
  std::uint64_t requests = 0;
  std::uint64_t bytes_served = 0;
};

class NfsServer {
 public:
  static constexpr std::uint16_t kDefaultPort = 2049;

  explicit NfsServer(net::Stack& stack, std::uint16_t port = kDefaultPort);
  ~NfsServer();

  /// Register a file; content is synthetic (deterministic bytes).
  void add_file(const std::string& name, std::uint64_t size);
  const NfsServerStats& stats() const { return stats_; }

  /// Deterministic content byte for (file, offset): lets clients verify
  /// reads end-to-end.
  static std::uint8_t content_byte(const std::string& name,
                                   std::uint64_t offset);

 private:
  void serve(std::shared_ptr<net::TcpSocket> sock);

  net::Stack& stack_;
  std::shared_ptr<net::TcpListener> listener_;
  std::map<std::string, std::uint64_t> files_;
  NfsServerStats stats_;
};

struct NfsClientStats {
  std::uint64_t reads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t bytes_fetched = 0;
};

class NfsClient {
 public:
  NfsClient(net::Host& host, net::Ipv4Address server,
            std::uint16_t port = NfsServer::kDefaultPort);

  /// A block's bytes (empty on a cache hit); nullopt if the connection
  /// closed first.  The next read dials afresh.
  using Block = std::optional<std::vector<std::uint8_t>>;

  /// Stream the whole file through the cache, one synchronous block RPC
  /// at a time; `done(ok)` fires after the last block or a failed one.
  void read_file(const std::string& name, std::uint64_t size,
                 std::function<void(bool ok)> done);
  /// Read one block (cache-aware).
  void read_block(const std::string& name, std::uint64_t block_index,
                  std::function<void(Block)> done);

  /// Drop the local cache (simulates a cold start).
  void invalidate_cache() { cache_.clear(); }
  const NfsClientStats& stats() const { return stats_; }

 private:
  struct Rpc {
    std::string name;
    std::uint64_t offset;
    std::uint32_t len;
    std::function<void(Block)> done;
  };

  void ensure_connected();
  void issue_next();
  void on_reply(const util::Buffer& reply);

  net::Host& host_;
  net::Ipv4Address server_;
  std::uint16_t port_;
  std::shared_ptr<net::FramedStream> stream_;
  bool connected_ = false;
  std::vector<Rpc> queue_;  // FIFO; one outstanding RPC (synchronous NFS)
  bool in_flight_ = false;
  std::set<std::pair<std::string, std::uint64_t>> cache_;  // (file, block)
  NfsClientStats stats_;
};

}  // namespace ipop::apps
