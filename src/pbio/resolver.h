// A receive stream's frame interpreter (a Reader, or one broker
// connection): it parses each frame, learns announced formats, holds a
// trace sidecar for the data frame after it, and resolves a data frame's
// wire id to (wire format, native target, conversion). Both receivers run
// the pbio frame protocol through interpret(); each keeps only what it
// does with the result.
//
// The paper's receiver builds a conversion "as soon as the wire format is
// known" and reuses it from then on. A Resolver holds a one-entry front —
// the last wire id's resolution — over the context's registry and
// artifact cache, and nothing else. Stream traffic is mostly same-format
// streaks, so after the first message a lookup is one compare and no
// lock; a miss takes three registry lock acquisitions and a lock-free
// artifact-cache hit, and allocates nothing.
//
// Only a change to the expected table can make the front stale: wire ids
// are content hashes and registry entries are immutable and never
// removed, so a later format announcement cannot change what a cached id
// resolves to. Owners call invalidate() after changing the table.
//
// Code is generated only for pairs that recur. A miss resolves with
// deferred code, so a pair's first record runs the bounds-checked
// interpreter over the verified plan. Every resolution of a conversion
// that has no code yet counts one use on the shared conversion; the
// kTierUpUses-th use, across every stream holding it, tiers it up (see
// Context::tier_up), and every holder switches to the generated code.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include "obs/span.h"
#include "obs/tracectx.h"
#include "pbio/context.h"
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

  /// Borrows both: `expected` is owned by the caller (a Reader's own
  /// table, or one table a broker shares across all its connections) and
  /// must outlive the Resolver.
  Resolver(Context& ctx, const ExpectedTable& expected)
      : ctx_(ctx), expected_(expected) {}

  /// What a wire id resolves to.
  struct Entry {
    const fmt::FormatDesc* wire = nullptr;
    /// nullptr when no decode target is expected for wire->name; such
    /// records still arrive (and can be reflected on) but not decode.
    const fmt::FormatDesc* native = nullptr;
    std::shared_ptr<const Conversion> conv;  // set exactly when native is
  };

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
    /// Resolver, valid until its next call), and whether it missed the
    /// front.
    const Entry* entry = nullptr;
    bool refilled = false;
    /// kData or kShortData: the sidecar that preceded the frame (invalid
    /// when none did) and its arrival wall clock (PBIO_OBS builds).
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

  /// Formats learned from announcements and the format resolver.
  std::size_t formats_learned() const { return formats_learned_; }

  /// Resolve `wire_id`. A repeat of the last resolved id is answered from
  /// the front (counted as pbio.recv.resolve_cache_hits). Otherwise the
  /// registry, the expected table and Context::try_conversion refill it:
  /// kUnknownFormat when neither the registry nor the format resolver
  /// knows the id, and a conversion the verifier rejects is returned as
  /// its error; a failed miss leaves the front as it was. `refilled`, when
  /// given, reports whether this call missed the front.
  Result<const Entry*> resolve(Context::FormatId wire_id,
                               bool* refilled = nullptr) {
    if (valid_ && cached_wire_id_ == wire_id) {
      OBS_COUNT("pbio.recv.resolve_cache_hits", 1);
      if (refilled != nullptr) *refilled = false;
      if (counting_) count_use();
      return &front_;
    }
    if (refilled != nullptr) *refilled = true;
    return refill(wire_id);
  }

  /// Drop the front entry. Call whenever the expected table changes.
  void invalidate() { valid_ = false; }

 private:
  Result<const Entry*> refill(Context::FormatId wire_id);

  /// The format resolver's description of `wire_id`, learned into the
  /// context; kUnknownFormat when there is none.
  Result<const fmt::FormatDesc*> fetch(Context::FormatId wire_id);

  /// Count a use of the front's code-less conversion; tier it up at
  /// kTierUpUses. Stops counting once it has code or a tier-up is claimed.
  void count_use();

  Context& ctx_;
  const ExpectedTable& expected_;
  bool valid_ = false;
  /// The front's conversion had no code when last looked at.
  bool counting_ = false;
  Context::FormatId cached_wire_id_ = 0;
  Entry front_;
  FormatResolver format_resolver_;
  std::size_t formats_learned_ = 0;

  // Trace sidecar not yet taken by a data frame. Held in every build: the
  // peer may be an obs-on build, and a broker forwards it regardless.
  obs::TraceCtx pending_trace_;
  std::uint64_t pending_trace_ns_ = 0;
};

}  // namespace pbio
