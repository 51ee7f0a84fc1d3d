#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "mp/buffer.hpp"
#include "mp/collectives.hpp"
#include "mp/message.hpp"
#include "util/error.hpp"

namespace pblpar::mp {

/// Wildcards for recv.
constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Source and tag of a received message (MPI_Status equivalent).
struct RecvStatus {
  int source = -1;
  int tag = -1;
};

/// The TeachMPI front end shared by every transport: typed point-to-point
/// calls and the collectives, written once over the raw transport concept
/// that `Derived` implements:
///   int rank(); int size();
///   std::size_t pipeline_segment_bytes();   // 0 = never segment
///   void send_raw(int dest, int tag, std::size_t type_hash, Buffer payload);
///   RawMessage recv_raw(int source, int tag);
/// The host world (Comm), the simulated cluster (SimComm) and the
/// loss-tolerant wrapper (cluster::ReliableComm) all derive from it, so a
/// program written against one runs unchanged on the others.
///
/// Point-to-point sends are buffered (never block); receives block until
/// a matching message arrives. Collectives must be called by every rank,
/// in the same order; the algorithms live in mp/collectives.hpp.
template <class Derived>
class Endpoint {
 public:
  // --- point to point -------------------------------------------------------

  template <class T>
  void send(int dest, int tag, const T& value) {
    check_user_tag(tag);
    self().send_raw(dest, tag, type_hash_of<T>(), Codec<T>::encode(value));
  }

  /// Move-of-ownership send: the vector's storage becomes the payload,
  /// no bytes are copied.
  template <class U>
  void send(int dest, int tag, std::vector<U>&& values) {
    check_user_tag(tag);
    self().send_raw(dest, tag, type_hash_of<std::vector<U>>(),
                    Codec<std::vector<U>>::encode(std::move(values)));
  }

  void send(int dest, int tag, std::string&& text) {
    check_user_tag(tag);
    self().send_raw(dest, tag, type_hash_of<std::string>(),
                    Codec<std::string>::encode(std::move(text)));
  }

  template <class T>
  T recv(int source = kAnySource, int tag = kAnyTag,
         RecvStatus* status = nullptr) {
    RawMessage message =
        recv_typed(source, tag, type_hash_of<T>(), status, "recv");
    return Codec<T>::decode(message.payload);
  }

  /// Zero-copy receive of a vector payload: the returned view owns the
  /// message buffer and exposes the elements in place (no decode copy).
  template <class U>
  PayloadView<U> recv_view(int source = kAnySource, int tag = kAnyTag,
                           RecvStatus* status = nullptr) {
    RawMessage message = recv_typed(
        source, tag, type_hash_of<std::vector<U>>(), status, "recv_view");
    return PayloadView<U>(std::move(message.payload));
  }

  /// Combined shift: buffered send then blocking receive, so ring shifts
  /// cannot deadlock.
  template <class T>
  T sendrecv(int dest, int send_tag, const T& value, int source,
             int recv_tag) {
    send(dest, send_tag, value);
    return recv<T>(source, recv_tag);
  }

  // --- collectives ------------------------------------------------------------

  void barrier() { detail::barrier(self()); }

  template <class T>
  void bcast(T& value, int root = 0) {
    detail::bcast(self(), value, root);
  }

  /// Raw payload broadcast: root's buffer in, every rank's buffer out.
  void bcast_raw(Buffer& payload, int root = 0) {
    detail::bcast_raw(self(), payload, root);
  }

  template <class T, class Op>
  T reduce(const T& value, Op op, int root = 0) {
    return detail::reduce(self(), value, op, root);
  }

  template <class T, class Op>
  T allreduce(const T& value, Op op) {
    return detail::allreduce(self(), value, op);
  }

  /// In-place element-wise reduction of equal-length vectors, pipelined
  /// in segments above the pipeline threshold. Root's vector holds the
  /// result.
  template <class U, class Op>
  void reduce_elementwise(std::vector<U>& data, Op op, int root = 0) {
    detail::reduce_elementwise(self(), data, op, root);
  }

  template <class U, class Op>
  void allreduce_elementwise(std::vector<U>& data, Op op) {
    detail::allreduce_elementwise(self(), data, op);
  }

  template <class T>
  T scatter(const std::vector<T>& values, int root = 0) {
    return detail::scatter(self(), values, root);
  }

  /// Zero-copy scatter of pre-built payload blobs (one Buffer per rank).
  Buffer scatter_raw(std::vector<Buffer> blobs, int root = 0) {
    return detail::scatter_raw(self(), std::move(blobs), root);
  }

  template <class T>
  std::vector<T> gather(const T& value, int root = 0) {
    return detail::gather(self(), value, root);
  }

  /// Zero-copy gather of payload blobs; non-root ranks return empty.
  std::vector<Buffer> gather_raw(Buffer blob, int root = 0) {
    return detail::gather_raw(self(), std::move(blob), root);
  }

  template <class T>
  std::vector<T> allgather(const T& value) {
    return detail::allgather(self(), value);
  }

  /// Zero-copy allgather: move this rank's vector in, get a read-only
  /// view of every rank's elements back. All views alias the one packed
  /// broadcast frame — no per-rank decode copies.
  template <class U>
  std::vector<PayloadView<U>> allgather_view(std::vector<U>&& values) {
    return detail::allgather_view(self(), std::move(values));
  }

  /// In-place ring allreduce for any element count (uneven segments) and
  /// any trivially copyable element.
  template <class U, class Op>
  void ring_allreduce(std::vector<U>& data, Op op) {
    detail::ring_allreduce(self(), data, op);
  }

  std::vector<double> ring_allreduce_sum(std::vector<double> data) {
    return detail::ring_allreduce_sum(self(), std::move(data));
  }

 protected:
  Endpoint() = default;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  static void check_user_tag(int tag) {
    util::require(tag >= 0, "send: user tags must be non-negative");
  }

  RawMessage recv_typed(int source, int tag, std::size_t type_hash,
                        RecvStatus* status, const char* call) {
    RawMessage message = self().recv_raw(source, tag);
    if (message.type_hash != type_hash) {
      throw MpTypeError(std::string(call) +
                        ": matched message has a different payload type");
    }
    if (status != nullptr) {
      status->source = message.source;
      status->tag = message.tag;
    }
    return message;
  }
};

}  // namespace pblpar::mp
