#include "pbio/format_service.h"

#include "fmt/meta.h"
#include "util/buffer.h"

namespace pbio {

Status FormatServiceServer::handle(std::span<const std::uint8_t> request,
                                   ByteBuffer& reply) {
  reply.clear();
  if (request.empty()) {
    return Status(Errc::kMalformed, "empty service request");
  }
  requests_.add(0, 1);
  switch (request[0]) {
    case kSvcLookup: {
      Context::FormatId id = 0;
      if (!decode_svc_id(request, &id)) {
        return Status(Errc::kTruncated, "short lookup request");
      }
      const fmt::FormatDesc* f = ctx_.find(id);
      if (f == nullptr) {
        reply.append_uint(kSvcMiss, 1, ByteOrder::kLittle);
        return Status::ok();
      }
      reply.append_uint(kSvcFound, 1, ByteOrder::kLittle);
      fmt::encode_meta(*f, reply);
      return Status::ok();
    }
    case kSvcRegister: {
      auto meta = fmt::decode_meta(request.subspan(1));
      if (!meta.is_ok()) return meta.status();
      auto id = ctx_.learn_format(std::move(meta).take());
      if (!id.is_ok()) return id.status();
      reply.append(encode_svc_id(kSvcRegistered, id.value()));
      return Status::ok();
    }
    default:
      return Status(Errc::kMalformed, "unknown service request kind");
  }
}

Status FormatServiceServer::serve_one(transport::Channel& ch) {
  auto req = ch.recv_buf();
  if (!req.is_ok()) return req.status();
  ByteBuffer reply(256);
  Status st = handle(req.value().view(), reply);
  if (!st.is_ok()) return st;
  return ch.send(reply.view());
}

void FormatServiceServer::serve_until_closed(transport::Channel& ch) {
  while (true) {
    Status st = serve_one(ch);
    if (st.code() == Errc::kChannelClosed) return;
    // Malformed requests are answered with silence; keep serving.
    if (!st.is_ok() && st.code() == Errc::kIo) return;
  }
}

Result<fmt::FormatDesc> FormatServiceClient::lookup(Context::FormatId id) {
  Status st = ch_.send(encode_svc_id(kSvcLookup, id));
  if (!st.is_ok()) return st;
  auto reply = ch_.recv_buf();
  if (!reply.is_ok()) return reply.status();
  const auto bytes = reply.value().view();
  if (bytes.empty()) {
    return Status(Errc::kMalformed, "empty service reply");
  }
  if (bytes[0] == kSvcMiss) {
    return Status(Errc::kUnknownFormat, "format not known to service");
  }
  if (bytes[0] != kSvcFound) {
    return Status(Errc::kMalformed, "unexpected service reply");
  }
  return fmt::decode_meta(bytes.subspan(1));
}

Result<Context::FormatId> FormatServiceClient::publish(
    const fmt::FormatDesc& f) {
  ByteBuffer req(256);
  req.append_uint(kSvcRegister, 1, ByteOrder::kLittle);
  fmt::encode_meta(f, req);
  Status st = ch_.send(req.view());
  if (!st.is_ok()) return st;
  auto reply = ch_.recv_buf();
  if (!reply.is_ok()) return reply.status();
  const auto bytes = reply.value().view();
  Context::FormatId id = 0;
  if (!decode_svc_id(bytes, &id) || bytes[0] != kSvcRegistered) {
    return Status(Errc::kMalformed, "unexpected service reply");
  }
  return id;
}

}  // namespace pbio
