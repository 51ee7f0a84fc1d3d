#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "oocore/io.hpp"
#include "util/wire.hpp"

namespace pblpar::oocore {

/// Approximate heap footprint of a value, used by the spillable shuffle's
/// per-worker byte accounting. It counts payload bytes, not allocator
/// slack (mapreduce::FoldTable adds a fixed per-entry charge on top) —
/// the budget is a target, not a hard rlimit, and the map phase checks it
/// after every record so the overshoot is bounded by one record's
/// emissions.
template <class T>
inline std::size_t approx_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "approx_bytes: add an overload for this type");
  (void)value;
  return sizeof(T);
}

inline std::size_t approx_bytes(const std::string& value) {
  return sizeof(std::string) + value.size();
}

template <class U>
inline std::size_t approx_bytes(const std::vector<U>& values) {
  std::size_t total = sizeof(std::vector<U>);
  for (const U& value : values) {
    total += approx_bytes(value);
  }
  return total;
}

template <class A, class B>
inline std::size_t approx_bytes(const std::pair<A, B>& value) {
  return approx_bytes(value.first) + approx_bytes(value.second);
}

/// Record-stream writer over a SpillWriter. Trivially-copyable records go
/// down raw (fixed-size, no framing); everything else is length-prefixed
/// util wire (the same byte-deterministic codec the distributed
/// MapReduce driver ships shuffle blobs with), so a run file's bytes are
/// a pure function of the record sequence.
template <class T>
class RunWriter {
 public:
  explicit RunWriter(SpillWriter& sink) : sink_(&sink) {}

  void push(const T& value) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      sink_->write(&value, sizeof(T));
    } else {
      scratch_.clear();  // keeps the capacity: no allocation per record
      util::WireCodec<T>::write(scratch_, value);
      const std::span<const std::byte> bytes = scratch_.view();
      const std::uint32_t length = util::wire_length(bytes.size());
      sink_->write(&length, sizeof(length));
      sink_->write(bytes.data(), bytes.size());
    }
    ++records_;
  }

  std::int64_t records() const { return records_; }

 private:
  SpillWriter* sink_;
  util::Writer scratch_;
  std::int64_t records_ = 0;
};

/// Record-stream reader matching RunWriter's framing, templated on the
/// byte source (SpillReader or DoubleBufferedReader) so the per-record
/// read inlines instead of paying a virtual call.
template <class T, class Source = SpillReader>
class RunReader {
 public:
  explicit RunReader(Source& source) : source_(&source) {}

  /// False at end of stream; throws IoError on a torn record.
  bool pull(T* out) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      const std::size_t got = source_->read(out, sizeof(T));
      if (got == 0) {
        return false;
      }
      if (got != sizeof(T)) {
        throw IoError("oocore: torn record at the end of a run file");
      }
      return true;
    } else {
      std::uint32_t length = 0;
      const std::size_t got = source_->read(&length, sizeof(length));
      if (got == 0) {
        return false;
      }
      if (got != sizeof(length)) {
        throw IoError("oocore: torn record header in a run file");
      }
      // The length is untrusted until its bytes arrive, so the payload
      // is read in steps: a torn header claiming gigabytes allocates
      // about what the file holds, not what it claims. A record of at
      // most one step — the common case — is one read.
      std::size_t have = 0;
      do {
        const std::size_t step =
            std::min<std::size_t>(length - have, kPayloadStepBytes);
        scratch_.resize(have + step);
        if (source_->read(scratch_.data() + have, step) != step) {
          throw IoError("oocore: torn record payload in a run file");
        }
        have += step;
      } while (have < length);
      util::Reader reader(scratch_);
      *out = util::WireCodec<T>::read(reader);
      if (!reader.done()) {
        throw IoError("oocore: trailing bytes inside a run record");
      }
      return true;
    }
  }

 private:
  static constexpr std::size_t kPayloadStepBytes = std::size_t{64} << 10;

  Source* source_;
  std::vector<std::byte> scratch_;
};

}  // namespace pblpar::oocore
