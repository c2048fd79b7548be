// Storage agent core and backing stores: handle lifecycle, zero-fill reads,
// POSIX store behaviour on real files, and in-proc fault injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>
#include <sys/stat.h>

#include "src/agent/backing_store.h"
#include "src/agent/storage_agent.h"
#include "src/proto/message.h"

namespace swift {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return std::vector<uint8_t>(v); }

template <typename StoreT>
class BackingStoreTest : public ::testing::Test {
 protected:
  BackingStoreTest() {
    if constexpr (std::is_same_v<StoreT, PosixBackingStore>) {
      root_ = ::testing::TempDir() + "/swift_store_" + std::to_string(::getpid());
      ::mkdir(root_.c_str(), 0755);
      store_ = std::make_unique<PosixBackingStore>(root_);
    } else {
      store_ = std::make_unique<InMemoryBackingStore>();
    }
  }
  std::string root_;
  std::unique_ptr<BackingStore> store_;
};

using StoreTypes = ::testing::Types<InMemoryBackingStore, PosixBackingStore>;
TYPED_TEST_SUITE(BackingStoreTest, StoreTypes);

TYPED_TEST(BackingStoreTest, EnsureCreateReadWrite) {
  auto& store = *this->store_;
  EXPECT_FALSE(store.Exists("obj"));
  ASSERT_TRUE(store.Ensure("obj").ok());
  EXPECT_TRUE(store.Exists("obj"));
  ASSERT_TRUE(store.Ensure("obj").ok());  // idempotent

  ASSERT_TRUE(store.WriteAt("obj", 0, Bytes({1, 2, 3, 4})).ok());
  auto read = store.ReadAt("obj", 0, 4);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes({1, 2, 3, 4}));
  EXPECT_EQ(*store.Size("obj"), 4u);
}

TYPED_TEST(BackingStoreTest, ZeroFillPastEofAndHoles) {
  auto& store = *this->store_;
  ASSERT_TRUE(store.Ensure("obj").ok());
  // Sparse write at offset 100.
  ASSERT_TRUE(store.WriteAt("obj", 100, Bytes({7, 8})).ok());
  EXPECT_EQ(*store.Size("obj"), 102u);
  auto read = store.ReadAt("obj", 98, 8);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes({0, 0, 7, 8, 0, 0, 0, 0}));  // hole + tail zero-fill
}

TYPED_TEST(BackingStoreTest, TruncateBothDirections) {
  auto& store = *this->store_;
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.WriteAt("obj", 0, Bytes({1, 2, 3, 4, 5})).ok());
  ASSERT_TRUE(store.Truncate("obj", 2).ok());
  EXPECT_EQ(*store.Size("obj"), 2u);
  ASSERT_TRUE(store.Truncate("obj", 6).ok());
  auto read = store.ReadAt("obj", 0, 6);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes({1, 2, 0, 0, 0, 0}));
}

TYPED_TEST(BackingStoreTest, MissingFileErrors) {
  auto& store = *this->store_;
  EXPECT_EQ(store.ReadAt("ghost", 0, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.WriteAt("ghost", 0, Bytes({1})).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Size("ghost").code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Truncate("ghost", 0).code(), StatusCode::kNotFound);
  // Remove is idempotent: an absent file is already the goal state.
  EXPECT_TRUE(store.Remove("ghost").ok());
}

TYPED_TEST(BackingStoreTest, RemoveDeletes) {
  auto& store = *this->store_;
  ASSERT_TRUE(store.Ensure("obj").ok());
  ASSERT_TRUE(store.Remove("obj").ok());
  EXPECT_FALSE(store.Exists("obj"));
}

TYPED_TEST(BackingStoreTest, BytesSurviveManyDoublings) {
  auto& store = *this->store_;
  ASSERT_TRUE(store.Ensure("doublings").ok());
  // Each write doubles the file, from 64 bytes to 4 MiB.
  std::vector<uint8_t> model;
  for (size_t size = 64; model.size() < (size_t{4} << 20); size = model.size()) {
    std::vector<uint8_t> chunk(size);
    for (size_t i = 0; i < size; ++i) {
      chunk[i] = static_cast<uint8_t>((model.size() + i) * 131 + size);
    }
    ASSERT_TRUE(store.WriteAt("doublings", model.size(), chunk).ok());
    model.insert(model.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(*store.Size("doublings"), model.size());
  auto read = store.ReadAt("doublings", 0, model.size());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(*read == model);
}

TYPED_TEST(BackingStoreTest, ShrinkThenExtendReadsZeros) {
  auto& store = *this->store_;
  ASSERT_TRUE(store.Ensure("shrink").ok());
  // Several pages, then a cut in the middle of one of them.
  ASSERT_TRUE(store.WriteAt("shrink", 0, std::vector<uint8_t>(5 * 4096 + 100, 0xab)).ok());
  ASSERT_TRUE(store.Truncate("shrink", 5000).ok());
  // Extended twice: by Truncate, then by a write past the end.
  ASSERT_TRUE(store.Truncate("shrink", 12000).ok());
  ASSERT_TRUE(store.WriteAt("shrink", 30000, Bytes({7})).ok());
  EXPECT_EQ(*store.Size("shrink"), 30001u);
  std::vector<uint8_t> expected(30001, 0);
  std::fill(expected.begin(), expected.begin() + 5000, 0xab);
  expected.back() = 7;
  auto read = store.ReadAt("shrink", 0, expected.size());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(*read == expected);
}

TYPED_TEST(BackingStoreTest, ReadPastEofGetsTheZeroPage) {
  auto& store = *this->store_;
  ASSERT_TRUE(store.Ensure("past_eof").ok());
  ASSERT_TRUE(store.WriteAt("past_eof", 0, Bytes({1, 2, 3})).ok());
  auto read = store.ReadAt("past_eof", 100, 4096);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->data(), BufferSlice::ZeroPage(4096).data());
  EXPECT_TRUE(*read == std::vector<uint8_t>(4096, 0));
}

TEST(PosixBackingStoreTest, RejectsPathEscapes) {
  PosixBackingStore store(::testing::TempDir());
  EXPECT_EQ(store.Ensure("../escape").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Ensure("a/b").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Ensure("..").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Ensure("").code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------- agent core ------

TEST(StorageAgentCoreTest, OpenSemantics) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  // Open without create on a missing object fails.
  EXPECT_EQ(core.Open("obj", 0).code(), StatusCode::kNotFound);
  // Create.
  auto opened = core.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->size, 0u);
  ASSERT_TRUE(core.Write(opened->handle, 0, Bytes({1, 2, 3})).ok());
  ASSERT_TRUE(core.Close(opened->handle).ok());

  // Reopen preserves contents; truncate flag empties.
  auto reopened = core.Open("obj", 0);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size, 3u);
  ASSERT_TRUE(core.Close(reopened->handle).ok());
  auto truncated = core.Open("obj", kOpenCreate | kOpenTruncate);
  ASSERT_TRUE(truncated.ok());
  EXPECT_EQ(truncated->size, 0u);
}

TEST(StorageAgentCoreTest, HandleIsolationAndStaleHandles) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  auto a = core.Open("a", kOpenCreate);
  auto b = core.Open("b", kOpenCreate);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->handle, b->handle);
  EXPECT_EQ(core.open_handle_count(), 2u);
  ASSERT_TRUE(core.Write(a->handle, 0, Bytes({0xAA})).ok());
  ASSERT_TRUE(core.Write(b->handle, 0, Bytes({0xBB})).ok());
  EXPECT_EQ((*core.Read(a->handle, 0, 1))[0], 0xAA);
  EXPECT_EQ((*core.Read(b->handle, 0, 1))[0], 0xBB);

  ASSERT_TRUE(core.Close(a->handle).ok());
  EXPECT_EQ(core.Read(a->handle, 0, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(core.Close(a->handle).code(), StatusCode::kNotFound);
  EXPECT_EQ(core.Write(9999, 0, Bytes({1})).code(), StatusCode::kNotFound);
}

TEST(StorageAgentCoreTest, TwoHandlesSameObjectShareData) {
  // The UDP server gives every client session its own handle; they must see
  // one underlying file.
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  auto h1 = core.Open("shared", kOpenCreate);
  auto h2 = core.Open("shared", kOpenCreate);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  ASSERT_TRUE(core.Write(h1->handle, 0, Bytes({42})).ok());
  EXPECT_EQ((*core.Read(h2->handle, 0, 1))[0], 42);
}

TEST(StorageAgentCoreTest, StatTruncateAndCounters) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  auto h = core.Open("obj", kOpenCreate);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(core.Write(h->handle, 0, std::vector<uint8_t>(100, 1)).ok());
  EXPECT_EQ(*core.Stat(h->handle), 100u);
  ASSERT_TRUE(core.Truncate(h->handle, 40).ok());
  EXPECT_EQ(*core.Stat(h->handle), 40u);
  (void)core.Read(h->handle, 0, 40);
  EXPECT_EQ(core.bytes_written(), 100u);
  EXPECT_EQ(core.bytes_read(), 40u);
}

// ----------------------------------------------------- fault injection -----

TEST(InProcTransportTest, CrashAndRecovery) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport transport(&core);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());

  transport.set_crashed(true);
  EXPECT_EQ(transport.Write(opened->handle, 0, Bytes({1})).code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.Read(opened->handle, 0, 1).code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.Stat(opened->handle).code(), StatusCode::kUnavailable);

  transport.set_crashed(false);
  EXPECT_TRUE(transport.Write(opened->handle, 0, Bytes({1})).ok());
}

TEST(StorageAgentCoreTest, RemoveSemantics) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  auto h = core.Open("obj", kOpenCreate);
  ASSERT_TRUE(h.ok());
  // Removal with an open handle is refused.
  EXPECT_EQ(core.Remove("obj").code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(core.Close(h->handle).ok());
  EXPECT_TRUE(core.Remove("obj").ok());
  EXPECT_FALSE(store.Exists("obj"));
  EXPECT_TRUE(core.Remove("obj").ok());  // idempotent
}

TEST(InProcTransportTest, TransientFaultBudget) {
  InMemoryBackingStore store;
  StorageAgentCore core(&store);
  InProcTransport transport(&core);
  auto opened = transport.Open("obj", kOpenCreate);
  ASSERT_TRUE(opened.ok());
  transport.FailNextCalls(2);
  EXPECT_EQ(transport.Write(opened->handle, 0, Bytes({1})).code(), StatusCode::kUnavailable);
  EXPECT_EQ(transport.Write(opened->handle, 0, Bytes({1})).code(), StatusCode::kUnavailable);
  EXPECT_TRUE(transport.Write(opened->handle, 0, Bytes({1})).ok());
  EXPECT_GE(transport.call_count(), 4u);
}

}  // namespace
}  // namespace swift
