#include "util/wire.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace pblpar::util {
namespace {

TEST(WireTest, ScalarRoundTrip) {
  Writer writer;
  writer.u32(7u);
  writer.u64(1ull << 40);
  writer.i32(-3);
  writer.i64(-(1ll << 40));
  writer.f64(2.5);
  const std::vector<std::byte> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(reader.u32(), 7u);
  EXPECT_EQ(reader.u64(), 1ull << 40);
  EXPECT_EQ(reader.i32(), -3);
  EXPECT_EQ(reader.i64(), -(1ll << 40));
  EXPECT_DOUBLE_EQ(reader.f64(), 2.5);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, StringsAndBlobs) {
  Writer inner;
  inner.i32(11);
  Writer writer;
  writer.str("hello wire");
  writer.str("");
  writer.blob(inner.take());
  const std::vector<std::byte> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(reader.str(), "hello wire");
  EXPECT_EQ(reader.str(), "");
  const std::vector<std::byte> blob = reader.blob();
  Reader blob_reader(blob);
  EXPECT_EQ(blob_reader.i32(), 11);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, TruncatedDecodeThrows) {
  Writer writer;
  writer.i64(5);
  const std::vector<std::byte> bytes = writer.take();
  {
    Reader reader(bytes);
    (void)reader.i64();
    EXPECT_THROW((void)reader.i32(), WireError);
  }
  {
    // A length prefix larger than the remaining buffer.
    Writer bad;
    bad.u32(1000u);
    const std::vector<std::byte> bad_bytes = bad.take();
    Reader reader(bad_bytes);
    EXPECT_THROW((void)reader.str(), WireError);
    Reader reader2(bad_bytes);
    EXPECT_THROW((void)reader2.blob(), WireError);
  }
}

TEST(WireTest, CodecRoundTripsNestedTypes) {
  using Pairs = std::vector<std::pair<std::string, std::vector<int>>>;
  const Pairs value = {{"alpha", {1, 2, 3}}, {"", {}}, {"beta", {-7}}};

  Writer writer;
  WireCodec<Pairs>::write(writer, value);
  const std::vector<std::byte> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(WireCodec<Pairs>::read(reader), value);
  EXPECT_TRUE(reader.done());
}

TEST(WireTest, EqualFieldSequencesEncodeToEqualBytes) {
  const auto encode = [] {
    Writer writer;
    writer.str("determinism");
    writer.f64(3.25);
    WireCodec<std::vector<long>>::write(writer, {4, 5, 6});
    return writer.take();
  };
  EXPECT_EQ(encode(), encode());
}

TEST(WireTest, CorruptVectorCountIsAWireErrorNotAnAllocation) {
  // A count of 2^32 - 1 with nothing behind it: the decoder must reject
  // it before sizing any allocation from it.
  const std::vector<std::byte> bytes(4, std::byte{0xff});
  Reader strings(bytes);
  EXPECT_THROW((void)WireCodec<std::vector<std::string>>::read(strings),
               WireError);
  Reader words(bytes);
  EXPECT_THROW((void)WireCodec<std::vector<std::uint64_t>>::read(words),
               WireError);
}

TEST(WireTest, VectorCountWithinTheBufferButShortElementsThrows) {
  Writer writer;
  writer.u32(2);
  writer.u32(7);  // 4 bytes left: fewer than the 16 two u64s need
  const std::vector<std::byte> bytes = writer.take();
  Reader reader(bytes);
  EXPECT_THROW((void)WireCodec<std::vector<std::uint64_t>>::read(reader),
               WireError);
}

TEST(WireTest, LengthsPastTheU32PrefixThrowInsteadOfTruncating) {
  // Writer::str, Writer::blob, the vector codec and the oocore run
  // writer all take their prefix from wire_length; 2^32 would have been
  // written as 0.
  EXPECT_EQ(wire_length(0), 0u);
  EXPECT_EQ(wire_length(std::numeric_limits<std::uint32_t>::max()),
            std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW((void)wire_length(std::size_t{1} << 32), WireError);
}

}  // namespace
}  // namespace pblpar::util
