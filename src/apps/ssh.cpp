#include "apps/ssh.hpp"

#include "net/framed_stream.hpp"

namespace ipop::apps {

namespace {

util::BufferChain text_body(const std::string& text) {
  return util::BufferChain(
      util::Buffer::wrap(std::vector<std::uint8_t>(text.begin(), text.end())));
}

std::string body_text(const util::Buffer& body) {
  return std::string(body.begin(), body.end());
}

}  // namespace

ExecServer::ExecServer(net::Stack& stack, std::uint16_t port) : stack_(stack) {
  listener_ = stack_.tcp_listen(port);
  if (listener_ != nullptr) {
    listener_->set_accept_handler([this](std::shared_ptr<net::TcpSocket> s) {
      handle_request(std::move(s));
    });
  }
}

ExecServer::~ExecServer() {
  if (listener_ != nullptr) listener_->close();
}

void ExecServer::register_command(const std::string& name,
                                  CommandHandler handler) {
  commands_[name] = std::move(handler);
}

void ExecServer::handle_request(std::shared_ptr<net::TcpSocket> sock) {
  auto stream = net::FramedStream::attach(std::move(sock));
  stream->on_frame = [this, s = stream.get()](util::Buffer body) {
    ++served_;
    const std::string msg = body_text(body);
    const auto space = msg.find(' ');
    const std::string name = msg.substr(0, space);
    const std::string args =
        space == std::string::npos ? "" : msg.substr(space + 1);
    std::string result = "sh: command not found: " + name;
    auto it = commands_.find(name);
    if (it != commands_.end()) result = it->second(args);
    s->send(text_body(result));
    s->close();
  };
}

void exec_remote(net::Stack& stack, net::Ipv4Address host,
                 const std::string& command,
                 std::function<void(std::optional<std::string>)> done,
                 std::uint16_t port) {
  auto sock = stack.tcp_connect(host, port);
  if (sock == nullptr) {
    done(std::nullopt);
    return;
  }
  auto done_p =
      std::make_shared<std::function<void(std::optional<std::string>)>>(
          std::move(done));
  auto stream = net::FramedStream::attach(sock);
  sock->on_connected = [stream, command] { stream->send(text_body(command)); };
  stream->on_frame = [s = stream.get(), done_p](util::Buffer body) {
    if (!*done_p) return;
    auto cb = std::move(*done_p);
    *done_p = nullptr;
    cb(body_text(body));
    s->close();
  };
  sock->on_closed = [done_p](const std::string&) {
    if (*done_p) {
      auto cb = std::move(*done_p);
      *done_p = nullptr;
      cb(std::nullopt);
    }
  };
}

}  // namespace ipop::apps
