// Message-passing runtime (MPI-workalike) over virtual-network TCP.
//
// The paper runs an unmodified LAM/MPI application over IPOP (Section
// IV-C).  This runtime provides the subset LSS needs — ranked endpoints,
// tagged point-to-point messages with MPI-style matching (posted receives
// vs. unexpected-message queue), and a tiny launcher that "boots" workers
// via the SSH-like exec service — all over ordinary TCP sockets, so the
// whole stack exercises IPOP exactly the way LAM/MPI did.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/framed_stream.hpp"
#include "net/stack.hpp"

namespace ipop::apps {

/// Tagged message endpoint for one rank.
class MpEndpoint {
 public:
  static constexpr std::uint16_t kBasePort = 5600;
  using Message = std::vector<std::uint8_t>;
  using RecvCallback = std::function<void(int src_rank, Message)>;

  /// `ranks` maps rank -> virtual IP (same table on every member).
  MpEndpoint(net::Stack& stack, int rank,
             std::vector<net::Ipv4Address> ranks);
  ~MpEndpoint();

  int rank() const { return rank_; }

  /// Asynchronous tagged send (buffered; connection established lazily).
  void send(int dst_rank, int tag, Message payload);
  /// Post a one-shot receive for (src_rank, tag); src_rank -1 = any.
  /// Matches MPI semantics: unexpected messages queue until a receive is
  /// posted.
  void recv(int src_rank, int tag, RecvCallback cb);

  std::uint64_t messages_received() const { return received_; }

 private:
  struct Pending {
    int src_rank;
    int tag;
    RecvCallback cb;
  };
  struct Unexpected {
    int src_rank;
    int tag;
    Message payload;
  };

  /// Wire an inbound or outbound socket as a message stream.
  std::shared_ptr<net::FramedStream> adopt_socket(
      std::shared_ptr<net::TcpSocket> sock);
  void dispatch(int src_rank, int tag, Message payload);

  net::Stack& stack_;
  int rank_;
  std::vector<net::Ipv4Address> ranks_;
  std::shared_ptr<net::TcpListener> listener_;
  // Every stream, inbound and outbound: senders are identified per
  // frame, so the two directions never need correlating.
  std::vector<std::shared_ptr<net::FramedStream>> streams_;
  std::map<int, std::shared_ptr<net::FramedStream>> outbound_;  // by dst rank
  std::deque<Pending> pending_;
  std::deque<Unexpected> unexpected_;
  std::uint64_t received_ = 0;
};

/// "mpirun": boot daemons on every host via the exec service, then hand
/// ready MpEndpoints to the caller.  Mirrors the paper's "SSH is required
/// to start the lam daemons on each compute node".
class MpLauncher {
 public:
  using LaunchCallback = std::function<void(bool ok)>;

  /// Each (stack, ip) pair is one rank, in order; rank 0 is the master.
  /// All stacks must already run an ExecServer with a "lamboot" command.
  static void lamboot(net::Stack& master_stack,
                      const std::vector<net::Ipv4Address>& ranks,
                      LaunchCallback done);
};

}  // namespace ipop::apps
