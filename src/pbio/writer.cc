#include "pbio/writer.h"

#include "fmt/meta.h"
#include "obs/span.h"
#include "obs/tracectx.h"
#include "transport/wire.h"

namespace pbio {

Writer::Known* Writer::known(Context::FormatId fmt_id) {
  if (Known* k = known_.find(fmt_id)) return k;
  const fmt::FormatDesc* f = ctx_.find(fmt_id);
  if (f == nullptr) return nullptr;
  return &known_.insert(fmt_id, Known{f, false});
}

void Writer::build_announce(const fmt::FormatDesc& f) {
  announce_buf_.clear();
  announce_buf_.append_uint(kFrameFormat, 1, ByteOrder::kLittle);
  fmt::encode_meta(f, announce_buf_);
  OBS_COUNT("pbio.encode.meta_bytes", announce_buf_.view().size());
}

Status Writer::announce(Context::FormatId fmt_id) {
  if (!announce_in_band_) return Status::ok();
  Known* k = known(fmt_id);
  if (k == nullptr) {
    return Status(Errc::kUnknownFormat, "announce: format not registered");
  }
  if (k->announced) return Status::ok();
  build_announce(*k->desc);
  const std::span<const std::uint8_t> segs[] = {announce_buf_.view()};
  const transport::FrameSegments frame{segs};
  Status st = channel_.send_frames({&frame, 1});
  if (st.is_ok()) k->announced = true;
  return st;
}

Status Writer::send_payload(Context::FormatId fmt_id, Known& k,
                            std::span<const std::uint8_t> image) {
  std::uint8_t header[kDataHeaderSize];
  encode_id_header(header, kFrameData, fmt_id);
  const std::span<const std::uint8_t> data_segs[] = {
      {header, kDataHeaderSize}, image};

  // Sampled messages grow a trace sidecar frame that leaves in the same
  // gathered call as the data frame (one writev either way): the broker
  // and Reader stamp their hops onto the ids it carries. Sampling off
  // (the default) costs one relaxed load here.
  obs::TraceCtx tctx;
  std::uint8_t tframe[kTraceFrameLen];
  const std::span<const std::uint8_t> trace_segs[] = {{tframe, kTraceFrameLen}};
  const bool traced = obs::trace_sample();
  if (traced) {
    tctx = obs::make_trace_ctx();
    encode_trace_frame(tframe, tctx);
  }

  // One send_frames call: [announce]? [trace sidecar]? [data] — on
  // sockets a single writev, so neither the format's meta-information nor
  // the sidecar costs an extra kernel crossing.
  const bool announce_now = announce_in_band_ && !k.announced;
  std::span<const std::uint8_t> fmt_segs[1];
  transport::FrameSegments frames[3];
  std::size_t n = 0;
  if (announce_now) {
    build_announce(*k.desc);
    fmt_segs[0] = announce_buf_.view();
    frames[n++] = {fmt_segs};
  }
  if (traced) frames[n++] = {trace_segs};
  frames[n++] = {data_segs};
  Status st = channel_.send_frames({frames, n});
  if (st.is_ok()) {
    if (announce_now) k.announced = true;
    OBS_COUNT("pbio.encode.data_bytes", kDataHeaderSize + image.size());
    if (traced) {
      // The encode span: origin (context creation, before the send) to
      // now (payload handed to the kernel).
      obs::trace_emit_ctx("pbio.trace.encode", tctx, tctx.origin_ns,
                          obs::epoch_ns());
    }
  }
  return st;
}

namespace {

// Every write* returns through here, so a failed write counts once in
// pbio.encode.failed; its pbio.encode span sample counts every write.
Status counted(Status st) {
  if (!st.is_ok()) OBS_COUNT("pbio.encode.failed", 1);
  return st;
}

Status unknown_format(const char* what) {
  return counted(Status(Errc::kUnknownFormat, what));
}

}  // namespace

Status Writer::write(Context::FormatId fmt_id, const void* record) {
  OBS_SPAN("pbio.encode");
  Known* k = known(fmt_id);
  if (k == nullptr) return unknown_format("write: format not registered");
  const fmt::FormatDesc& f = *k->desc;
  if (f.is_fixed_layout()) {
    // NDR fast path: the record *is* the wire image.
    return counted(send_payload(
        fmt_id, *k, {static_cast<const std::uint8_t*>(record), f.fixed_size}));
  }
  gather_buf_.clear();
  Status st = encode_native(f, record, gather_buf_);
  if (!st.is_ok()) return counted(st);
  return counted(send_payload(fmt_id, *k, gather_buf_.view()));
}

Status Writer::write_image(Context::FormatId fmt_id,
                           std::span<const std::uint8_t> image) {
  OBS_SPAN("pbio.encode", image.size());
  Known* k = known(fmt_id);
  if (k == nullptr) return unknown_format("write_image: format not registered");
  return counted(send_payload(fmt_id, *k, image));
}

Status Writer::write_array(Context::FormatId fmt_id, const void* records,
                           std::uint32_t count) {
  OBS_SPAN("pbio.encode", count);
  Known* k = known(fmt_id);
  if (k == nullptr) return unknown_format("write_array: format not registered");
  const fmt::FormatDesc& f = *k->desc;
  if (!f.is_fixed_layout()) {
    return counted(Status(Errc::kUnsupported,
                          "write_array requires a fixed-layout format"));
  }
  return counted(send_payload(
      fmt_id, *k,
      {static_cast<const std::uint8_t*>(records),
       static_cast<std::size_t>(f.fixed_size) * count}));
}

}  // namespace pbio
