// MPI-style derived datatypes (the "mpilite" baseline).
//
// Reproduces the structure of MPICH's user-defined datatype machinery that
// the paper measures against: applications build datatypes from basic types
// with contiguous / vector / struct constructors; the library flattens them
// into a typemap of (basic type, displacement) entries; pack/unpack walk
// that map element by element — "mechanisms that amount to interpreted
// versions of field-by-field packing" (paper §2).
//
// The canonical wire representation follows MPI's external32 / XDR
// tradition: big-endian, packed, fixed sizes per basic type.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arch/abi.h"
#include "fmt/format.h"

namespace pbio::mpilite {

/// Basic datatypes (sizes are ABI-dependent on the native side and fixed on
/// the canonical side, as in MPI external32).
enum class Basic : std::uint8_t {
  kChar,
  kShort,
  kInt,
  kLong,       // native 4 or 8 depending on ABI; canonical 4 (external32)
  kLongLong,
  kUChar,
  kUShort,
  kUInt,
  kULong,
  kULongLong,
  kFloat,
  kDouble,
};

/// Native size of a basic type under `abi`.
std::uint32_t native_size(Basic b, const arch::Abi& abi);
/// Canonical (external32-style) size of a basic type.
std::uint32_t canonical_size(Basic b);
bool is_signed(Basic b);
bool is_float(Basic b);

/// One element of the flattened typemap.
struct TypeEntry {
  Basic kind;
  std::uint64_t offset;  // displacement in the native buffer
};

class Datatype {
 public:
  /// A single basic element at displacement 0.
  static Datatype basic(Basic b, const arch::Abi& abi);

  /// `count` repetitions of `t`, each advanced by t.extent().
  static Datatype contiguous(std::uint32_t count, const Datatype& t);

  /// MPI_Type_vector: `count` blocks of `blocklen` elements, block starts
  /// `stride` elements apart.
  static Datatype vector(std::uint32_t count, std::uint32_t blocklen,
                         std::uint32_t stride, const Datatype& t);

  /// MPI_Type_create_hvector: like vector, but the stride is in *bytes*.
  static Datatype hvector(std::uint32_t count, std::uint32_t blocklen,
                          std::uint64_t stride_bytes, const Datatype& t);

  /// MPI_Type_indexed: blocks of varying length at varying element
  /// displacements.
  struct IndexBlock {
    std::uint32_t blocklen;
    std::uint64_t displacement;  // in elements of t
  };
  static Datatype indexed(std::span<const IndexBlock> blocks,
                          const Datatype& t);

  /// MPI_Type_create_resized: same typemap, overridden extent (for
  /// interleaved sends of count > 1).
  static Datatype resized(const Datatype& t, std::uint64_t new_extent);

  /// MPI_Type_create_struct: blocks of (count, byte displacement, type).
  struct Block {
    std::uint32_t count;
    std::uint64_t displacement;
    const Datatype* type;
  };
  static Datatype create_struct(std::vector<Block> blocks,
                                std::uint64_t extent);

  const std::vector<TypeEntry>& typemap() const { return map_; }
  std::uint64_t extent() const { return extent_; }

  /// Bytes this datatype occupies in the canonical wire representation.
  std::uint64_t packed_size() const { return packed_size_; }

  /// Number of flattened elements.
  std::size_t element_count() const { return map_.size(); }

  /// The ABI this datatype's native displacements were computed against.
  const arch::Abi& abi() const { return *abi_; }

 private:
  std::vector<TypeEntry> map_;
  std::uint64_t extent_ = 0;
  std::uint64_t packed_size_ = 0;
  const arch::Abi* abi_ = nullptr;
};

/// The struct datatype an application would build for the fixed-layout
/// record `f` (nested structs become nested struct datatypes); the native
/// displacements follow the ABI named by `f.arch_name`. Throws PbioError
/// for variable-length fields.
Datatype datatype_for(const fmt::FormatDesc& f);

}  // namespace pbio::mpilite
