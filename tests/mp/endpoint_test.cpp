// The typed and collective surface mp::Endpoint gives every transport,
// checked once on each of them: the host world, the simulated cluster and
// the loss-tolerant wrapper over both.
#include "mp/endpoint.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "cluster/reliable.hpp"
#include "mp/sim_world.hpp"
#include "mp/world.hpp"
#include "util/error.hpp"

namespace pblpar::mp {
namespace {

struct HostWorld {
  template <class Body>
  static void run(int ranks, const Body& body) {
    World::run(ranks, [&](Comm& comm) { body(comm); });
  }
};

struct SimCluster {
  template <class Body>
  static void run(int ranks, const Body& body) {
    (void)SimWorld::run(ranks, [&](SimComm& comm) { body(comm); });
  }
};

/// Every rank wraps its endpoint (the envelope is not self-describing)
/// and flushes before leaving, so no peer is left waiting for an ack.
template <class Inner>
struct Reliable {
  template <class Body>
  static void run(int ranks, const Body& body) {
    Inner::run(ranks, [&](auto& comm) {
      using CommT = std::remove_reference_t<decltype(comm)>;
      cluster::ReliableComm<CommT> reliable(comm, cluster::ReliabilityOptions{});
      body(reliable);
      reliable.flush();
    });
  }
};

using Transports = ::testing::Types<HostWorld, SimCluster, Reliable<HostWorld>,
                                    Reliable<SimCluster>>;

struct TransportName {
  template <class T>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<T, HostWorld>) {
      return "Comm";
    } else if constexpr (std::is_same_v<T, SimCluster>) {
      return "SimComm";
    } else if constexpr (std::is_same_v<T, Reliable<HostWorld>>) {
      return "ReliableComm_Comm";
    } else {
      return "ReliableComm_SimComm";
    }
  }
};

template <class Transport>
class EndpointTest : public ::testing::Test {};

TYPED_TEST_SUITE(EndpointTest, Transports, TransportName);

TYPED_TEST(EndpointTest, NegativeUserTagIsRejectedByEverySendOverload) {
  TypeParam::run(2, [](auto& comm) {
    const int peer = 1 - comm.rank();
    EXPECT_THROW(comm.send(peer, -1, 7), util::PreconditionError);
    EXPECT_THROW(comm.send(peer, -5, std::vector<int>{1, 2}),
                 util::PreconditionError);
    EXPECT_THROW(comm.send(peer, -1, std::string("late")),
                 util::PreconditionError);
  });
}

TYPED_TEST(EndpointTest, TypeMismatchedRecvThrowsMpTypeError) {
  TypeParam::run(2, [](auto& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, 41);
      comm.send(1, 4, std::vector<int>{1, 2, 3, 4});
    } else {
      EXPECT_THROW((void)comm.template recv<double>(0, 3), MpTypeError);
      EXPECT_THROW((void)comm.template recv_view<double>(0, 4), MpTypeError);
    }
  });
}

TYPED_TEST(EndpointTest, RecvStatusReportsSourceAndTag) {
  TypeParam::run(3, [](auto& comm) {
    if (comm.rank() == 2) {
      comm.send(0, 9, 42);
    } else if (comm.rank() == 0) {
      RecvStatus status;
      EXPECT_EQ(comm.template recv<int>(kAnySource, kAnyTag, &status), 42);
      EXPECT_EQ(status.source, 2);
      EXPECT_EQ(status.tag, 9);
    }
  });
}

constexpr std::size_t kCount = std::size_t{1} << 14;  // 128 KiB of doubles

TYPED_TEST(EndpointTest, RecvViewAliasesThePayloadWithoutACopy) {
  TypeParam::run(2, [](auto& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<double>(kCount, 2.5));
    }
    // The message is already sent when the barrier returns, so the window
    // below sees only the receive.
    comm.barrier();
    if (comm.rank() == 1) {
      const CopyStats before = payload_copy_stats();
      const PayloadView<double> view = comm.template recv_view<double>(0, 1);
      const CopyStats after = payload_copy_stats();
      ASSERT_EQ(view.size(), kCount);
      EXPECT_EQ(view[0], 2.5);
      EXPECT_EQ(view[kCount - 1], 2.5);
      EXPECT_EQ(static_cast<const void*>(view.begin()),
                static_cast<const void*>(view.buffer().data()));
      using CommT = std::remove_reference_t<decltype(comm)>;
      if constexpr (cluster::is_reliable_comm_v<CommT>) {
        // The wrapper acks the delivery (a counted 8-byte scalar encode),
        // so the check is on bytes: none of the payload's were copied.
        EXPECT_LT(after.bytes - before.bytes, kCount * sizeof(double));
      } else {
        EXPECT_EQ(after.copies, before.copies);
      }
    }
  });
}

TYPED_TEST(EndpointTest, SendrecvShiftsAroundARing) {
  TypeParam::run(4, [](auto& comm) {
    const int size = comm.size();
    const int right = (comm.rank() + 1) % size;
    const int left = (comm.rank() + size - 1) % size;
    EXPECT_EQ(comm.sendrecv(right, 2, comm.rank() * 10, left, 2), left * 10);
  });
}

}  // namespace
}  // namespace pblpar::mp
