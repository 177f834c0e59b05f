// PBIO writer: sends records in the sender's Natural Data Representation,
// announcing each format's meta-information once per channel.
//
// A Writer keeps a table of the ids it has written (pbio/id_table.h): an
// id's description is looked up in the context on its first write only,
// so a later write takes no lock. Registry entries are immutable and never
// removed, so a kept description never goes stale; an unregistered id is
// not kept, and a write after its registration succeeds.
//
// Every write and every announcement is one Channel::send_frames() call:
// a format's announcement and an optional trace sidecar ride in the same
// call as the data frame.
#pragma once

#include <span>

#include "pbio/context.h"
#include "pbio/encode.h"
#include "pbio/id_table.h"
#include "transport/channel.h"

namespace pbio {

class Writer {
 public:
  Writer(Context& ctx, transport::Channel& channel)
      : ctx_(ctx), channel_(channel) {}

  /// Send a native record (host ABI). Fixed-layout formats go out as
  /// header + record image via gathered I/O — the flat-cost NDR send path;
  /// formats with strings / variable arrays are gathered into one buffer.
  Status write(Context::FormatId fmt_id, const void* record);

  /// Send a pre-built wire image under `fmt_id` — used when simulating
  /// foreign-architecture senders whose images come from the layout engine.
  Status write_image(Context::FormatId fmt_id,
                     std::span<const std::uint8_t> image);

  /// Send `count` contiguous records in one message (fixed-layout formats
  /// only): the whole array ships as one NDR block; the receiver indexes
  /// it via Message::count() / view_at<T>(). Still zero-encode.
  Status write_array(Context::FormatId fmt_id, const void* records,
                     std::uint32_t count);

  /// Announce a format explicitly (idempotent; write() does this lazily).
  Status announce(Context::FormatId fmt_id);

  /// Disable in-band format announcements — for deployments where formats
  /// are published to a format service instead and readers resolve ids on
  /// demand (late joiners never see in-band announcements anyway).
  void set_announce_in_band(bool on) { announce_in_band_ = on; }

 private:
  /// A registered id this Writer has used.
  struct Known {
    const fmt::FormatDesc* desc = nullptr;
    bool announced = false;  // its announcement has been sent
  };

  /// `fmt_id`'s entry, from the context on first use; nullptr when the id
  /// is not registered. Valid until the next call.
  Known* known(Context::FormatId fmt_id);
  /// Fill announce_buf_ with the announcement frame of `f`.
  void build_announce(const fmt::FormatDesc& f);
  Status send_payload(Context::FormatId fmt_id, Known& k,
                      std::span<const std::uint8_t> image);

  Context& ctx_;
  transport::Channel& channel_;
  IdTable<Known> known_;
  bool announce_in_band_ = true;
  ByteBuffer gather_buf_;
  ByteBuffer announce_buf_;
};

}  // namespace pbio
