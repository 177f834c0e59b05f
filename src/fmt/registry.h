// Format registry: the receiver-side cache of announced wire formats and the
// sender-side table of registered native formats, keyed by the 64-bit
// content fingerprint that serves as the wire format id.
//
// Thread-safe: announcements may arrive on a transport thread while decode
// plans are being compiled on another.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "fmt/format.h"
#include "util/error.h"
#include "util/mutex.h"

namespace pbio::fmt {

using FormatId = std::uint64_t;

class FormatRegistry {
 public:
  /// Validates and registers a format; returns its wire id. Re-registering
  /// identical content is idempotent; registering *different* content that
  /// collides on id throws (fingerprints are content hashes, so this
  /// indicates either a hash collision or a corrupted description).
  FormatId register_format(FormatDesc f);

  /// The non-throwing form, for descriptions that came off the wire: the
  /// same checks and the same messages, but a description that fails
  /// validate() or whose id is held by different content is a kMalformed
  /// status. FNV-1a is not collision-resistant, so a peer can announce
  /// such a pair on purpose; each collision counts in
  /// pbio.fmt.id_collisions and the first content registered keeps the id.
  Result<FormatId> learn(FormatDesc f);

  /// Look up a registered format. The returned pointer is stable for the
  /// registry's lifetime (formats are never removed).
  const FormatDesc* find(FormatId id) const;

  /// Find by format name; returns the most recently registered format with
  /// that name, or nullptr.
  const FormatDesc* find_by_name(std::string_view name) const;

  bool contains(FormatId id) const { return find(id) != nullptr; }

  /// A registered format together with its cached canonical structural
  /// hash (fmt::canonical_hash, computed once at registration) — the
  /// conversion-artifact cache key half. desc == nullptr when unknown.
  struct Resolved {
    const FormatDesc* desc = nullptr;
    std::uint64_t canonical = 0;
  };
  Resolved resolve(FormatId id) const;

  std::size_t size() const;

  /// Snapshot of all registered ids (test/diagnostic use).
  std::vector<FormatId> ids() const;

 private:
  mutable Mutex mu_;
  struct Entry {
    FormatDesc desc;
    std::uint64_t canonical = 0;
  };
  // Map nodes never move, and entries are never removed or changed after
  // insert — find() hands out raw pointers to them by design, and by_name_
  // keys are views of their names.
  std::unordered_map<FormatId, Entry> formats_ PBIO_GUARDED_BY(mu_);
  std::unordered_map<std::string_view, FormatId> by_name_
      PBIO_GUARDED_BY(mu_);
};

}  // namespace pbio::fmt
