#include "broker/http.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string_view>

#include "broker/broker.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs/tracectx.h"

namespace pbio::broker {

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out += buf;
}

void gauge(std::string& out, const char* name, std::uint64_t v) {
  out += "# TYPE ";
  out += name;
  out += " gauge\n";
  out += name;
  out += ' ';
  append_u64(out, v);
  out += '\n';
}

void json_field(std::string& out, const char* name, std::uint64_t v,
                bool last = false) {
  out += "\"";
  out += name;
  out += "\": ";
  append_u64(out, v);
  if (!last) out += ", ";
}

}  // namespace

std::string render_metrics(Broker& b) {
  std::string out = obs::to_prometheus(obs::snapshot());
  const BrokerStats s = b.stats();
  gauge(out, "pbio_broker_connections", s.connections);
  gauge(out, "pbio_broker_inflight_frames", s.inflight);
  gauge(out, "pbio_broker_queued_bytes", s.queued_bytes);
  gauge(out, "pbio_broker_paused_connections", s.paused);
  return out;
}

std::string render_healthz(Broker& b) {
  const BrokerStats s = b.stats();
  const Config& cfg = b.config();
  const bool ok = s.connections < cfg.max_connections &&
                  s.inflight < cfg.max_inflight_frames;
  std::string out = "{\"ok\": ";
  out += ok ? "true" : "false";
  out += ", ";
  json_field(out, "connections", s.connections);
  json_field(out, "max_connections", cfg.max_connections);
  json_field(out, "inflight_frames", s.inflight);
  json_field(out, "max_inflight_frames", cfg.max_inflight_frames);
  json_field(out, "queued_bytes", s.queued_bytes);
  json_field(out, "paused_connections", s.paused);
  json_field(out, "shed_connections", s.shed_connections);
  json_field(out, "shed_inflight", s.shed_inflight);
  json_field(out, "protocol_errors", s.protocol_errors);
  json_field(out, "slow_frames", s.slow_frames, /*last=*/true);
  out += "}\n";
  return out;
}

std::string render_tracez() {
  std::string out =
      "# trace            span             start_ns             dur_ns name\n";
  for (const obs::TraceRecord& r : obs::recent_traces()) {
    char line[192];
    std::snprintf(line, sizeof(line), "%016llx %016llx %20llu %12llu %s\n",
                  static_cast<unsigned long long>(r.trace_id),
                  static_cast<unsigned long long>(r.span_id),
                  static_cast<unsigned long long>(r.start_ns),
                  static_cast<unsigned long long>(r.dur_ns), r.name);
    out += line;
  }
  return out;
}

ScrapeConn::~ScrapeConn() {
  if (fd_ >= 0) ::close(fd_);
}

bool ScrapeConn::service(Broker& b) {
  if (!responding_) {
    // Edge-triggered: drain the socket before deciding.
    char buf[1024];
    bool eof = false;
    while (true) {
      const ssize_t r = ::read(fd_, buf, sizeof(buf));
      if (r > 0) {
        req_.append(buf, static_cast<std::size_t>(r));
        if (req_.size() > kScrapeRequestCap) return false;
        continue;
      }
      if (r == 0) {
        eof = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    const bool complete = req_.find("\r\n\r\n") != std::string::npos ||
                          req_.find("\n\n") != std::string::npos;
    if (!complete) {
      return !eof;  // wait for the rest, or drop a peer that quit early
    }
    build_response(b);
    responding_ = true;
  }
  while (written_ < out_.size()) {
    const ssize_t w =
        ::send(fd_, out_.data() + written_, out_.size() - written_,
               MSG_NOSIGNAL);
    if (w > 0) {
      written_ += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;
  }
  return false;  // Connection: close — one response, then done
}

void ScrapeConn::build_response(Broker& b) {
  std::string_view line{req_};
  line = line.substr(0, line.find('\n'));
  std::string body;
  const char* status = "200 OK";
  const char* ctype = "text/plain; charset=utf-8";
  if (!line.starts_with("GET ")) {
    status = "405 Method Not Allowed";
    body = "only GET\n";
  } else {
    std::string_view path = line.substr(4);
    path = path.substr(0, path.find(' '));
    if (path == "/metrics") {
      body = render_metrics(b);
      ctype = "text/plain; version=0.0.4; charset=utf-8";
    } else if (path == "/healthz") {
      body = render_healthz(b);
      ctype = "application/json";
    } else if (path == "/tracez") {
      body = render_tracez();
    } else {
      status = "404 Not Found";
      body = "unknown path; try /metrics /healthz /tracez\n";
    }
  }
  out_ = "HTTP/1.0 ";
  out_ += status;
  out_ += "\r\nContent-Type: ";
  out_ += ctype;
  out_ += "\r\nContent-Length: ";
  append_u64(out_, body.size());
  out_ += "\r\nConnection: close\r\n\r\n";
  out_ += body;
}

}  // namespace pbio::broker
