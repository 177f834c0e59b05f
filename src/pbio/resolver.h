// A receive stream's frame interpreter (a Reader, or one broker
// connection): it parses each frame, learns announced formats, holds a
// trace sidecar for the data frame after it, and resolves a data frame's
// wire id to (wire format, native target, conversion). Both receivers run
// the pbio frame protocol through interpret(); each keeps only what it
// does with the result.
//
// The paper's receiver builds a conversion "as soon as the wire format is
// known" and reuses it from then on. A Resolver keeps a table of every
// wire id the stream has resolved (pbio/id_table.h), so a frame of a known
// id resolves from stream-local memory however the ids interleave: one
// probe, no lock, no call into the context. Only an id's first frame walks
// the registry, the expected table and the artifact cache (three registry
// lock acquisitions and one artifact-cache lock), and only that
// frame can allocate. The table holds at most kMaxKnownIds ids, so a peer
// announcing many formats cannot grow it.
//
// Only a change to the expected table can make an entry stale: wire ids
// are content hashes and registry entries are immutable and never
// removed, so a later format announcement cannot change what a known id
// resolves to. Owners call invalidate() after changing the table.
//
// Code is generated only for pairs that recur. An id's first frame
// resolves with deferred code, so a pair's first record runs the
// bounds-checked interpreter over the verified plan. Every resolution of a
// conversion that has no code yet counts one use on the shared conversion,
// whatever ids arrive in between; the kTierUpUses-th use, across every
// stream holding it, tiers it up (see Context::tier_up), and every holder
// switches to the generated code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "obs/obs.h"
#include "obs/span.h"
#include "obs/tracectx.h"
#include "pbio/context.h"
#include "pbio/id_table.h"
#include "util/wire_taint.h"

namespace pbio {

/// A decode target: the native format records of one wire format *name*
/// are converted into. The description is looked up once, when the
/// target is declared, so resolution never re-queries it.
struct Expected {
  Context::FormatId id = 0;
  const fmt::FormatDesc* desc = nullptr;
};

/// Decode targets by wire format name.
using ExpectedTable = std::unordered_map<std::string, Expected>;

/// The use of a conversion at which it gets generated code: its first
/// reuse. Table B (EXPERIMENTS.md) has a compile (~7 µs) paid back within
/// one record against the paper's interpreted baseline; against our block
/// interpreter the engines nearly tie (≤ 0.2 µs a record), so waiting
/// longer would save little and would move the compile into a stream's
/// steady state.
inline constexpr std::uint32_t kTierUpUses = 2;

class Resolver {
 public:
  /// A fallback for data frames whose format id was never announced:
  /// typically a FormatServiceClient's resolver().
  using FormatResolver =
      std::function<Result<fmt::FormatDesc>(Context::FormatId)>;

  /// Borrows `expected` (a Reader's own table, or one table a broker
  /// shares across all its connections) and `counters`, whose slot
  /// `learned` counts each format it learns; both must outlive it.
  Resolver(Context& ctx, const ExpectedTable& expected,
           obs::CounterBlock& counters, std::size_t learned)
      : ctx_(ctx), expected_(expected), counters_(counters),
        learned_(learned) {}

  /// What a wire id resolves to.
  struct Entry {
    const fmt::FormatDesc* wire = nullptr;
    /// nullptr when no decode target is expected for wire->name; such
    /// records still arrive (and can be reflected on) but not decode.
    const fmt::FormatDesc* native = nullptr;
    std::shared_ptr<const Conversion> conv;  // set exactly when native is
    /// The receiver's own per-pair series, for it to fill on the frame
    /// that resolved the id (Frame::refilled); the broker keeps its
    /// decode-latency histogram here. The Resolver only stores it.
    obs::MetricId decode_hist = obs::kInvalidMetric;
  };

  /// The most wire ids a stream keeps resolved. The id that would pass
  /// the bound empties the table first, and the ids after it resolve
  /// afresh.
  static constexpr std::size_t kMaxKnownIds = 64;

  /// What interpret() found in one frame. `kind` is set as soon as the
  /// frame shows it, so a caller can tell failures apart.
  struct Frame {
    enum class Kind : std::uint8_t {
      kEmpty,      // no kind byte
      kUnknown,    // a kind byte no pbio receiver knows
      kFormat,     // a format announcement
      kTrace,      // a trace sidecar
      kShortData,  // a data frame shorter than its header
      kData,       // a data frame with a whole header
    };
    Kind kind = Kind::kEmpty;
    Context::FormatId wire_id = 0;          // kData
    std::span<const std::uint8_t> payload;  // kData: the record image
    /// kData, when resolved: the wire id's resolution (owned by the
    /// Resolver, valid until its next call), and whether this frame
    /// resolved the id afresh instead of finding it in the table.
    Entry* entry = nullptr;
    bool refilled = false;
    /// kData or kShortData: the sidecar that preceded the frame (invalid
    /// when none did) and its arrival wall clock.
    obs::TraceCtx trace;
    std::uint64_t trace_ns = 0;
  };

  /// Interpret one received frame (kind byte onwards):
  ///  * an announcement is decoded and learned (Context::learn_format);
  ///  * a trace sidecar is held for the next data frame;
  ///  * a data frame takes the held sidecar, whatever its outcome, and
  ///    (when `resolve_data`) resolves its wire id and checks the payload
  ///    holds a whole record.
  /// Errors, each kMalformed unless noted: "empty frame", "unknown frame
  /// kind", a decode_meta or learn_format error, "bad trace sidecar
  /// frame", "short data frame" (kTruncated), a resolve() error, "payload
  /// smaller than record" (kTruncated).
  WIRE_TAINTED Status interpret(std::span<const std::uint8_t> frame,
                                Frame* out, bool resolve_data = true);

  /// Fetch, learn and resolve a wire id the context has never seen,
  /// once, instead of failing with kUnknownFormat. Unset by default.
  void set_format_resolver(FormatResolver resolver) {
    format_resolver_ = std::move(resolver);
  }

  /// Resolve `wire_id`. A known id is answered from the table (counted
  /// as pbio.recv.resolve_cache_hits). Otherwise the registry, the
  /// expected table and Context::try_conversion resolve it and the table
  /// keeps the result: kUnknownFormat when neither the registry nor the
  /// format resolver knows the id, and a conversion the verifier rejects
  /// is returned as its error; a failure is not kept. `refilled`, when
  /// given, reports whether this call resolved the id afresh.
  Result<Entry*> resolve(Context::FormatId wire_id,
                         bool* refilled = nullptr) {
    if (Known* k = known_.find(wire_id)) {
      OBS_COUNT("pbio.recv.resolve_cache_hits", 1);
      if (refilled != nullptr) *refilled = false;
      if (k->counting) count_use(*k);
      return &k->entry;
    }
    if (refilled != nullptr) *refilled = true;
    return refill(wire_id);
  }

  /// Forget every resolved id. Call whenever the expected table changes.
  void invalidate() { known_.clear(); }

  /// Wire ids the table holds: at most kMaxKnownIds.
  std::size_t known_ids() const { return known_.size(); }

 private:
  /// A resolved id: its entry, and whether its conversion had no code
  /// when last looked at.
  struct Known {
    Entry entry;
    bool counting = false;
  };

  Result<Entry*> refill(Context::FormatId wire_id);

  /// The format resolver's description of `wire_id`, learned into the
  /// context; kUnknownFormat when there is none.
  Result<const fmt::FormatDesc*> fetch(Context::FormatId wire_id);

  /// Count a use of `k`'s code-less conversion; tier it up at
  /// kTierUpUses. Stops counting once it has code or a tier-up is claimed.
  void count_use(Known& k);

  Context& ctx_;
  const ExpectedTable& expected_;
  IdTable<Known> known_;
  FormatResolver format_resolver_;
  obs::CounterBlock& counters_;
  std::size_t learned_;

  // Trace sidecar not yet taken by a data frame. Held in every build: the
  // peer may be an obs-on build, and a broker forwards it regardless.
  obs::TraceCtx pending_trace_;
  std::uint64_t pending_trace_ns_ = 0;
};

}  // namespace pbio
