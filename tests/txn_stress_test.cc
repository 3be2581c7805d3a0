// Multi-threaded two-phase-locking stress test over the object store,
// with the PR-1 chunk-layer validated-plaintext cache and the parallel
// commit crypto pipeline both enabled. Threads run transfer transactions
// between shared accounts, acquiring locks in RANDOM order so deadlocks
// occur and are broken by lock timeouts (§4.1); aborted transfers retry.
// The invariant is conservation: the sum of balances never changes. The
// test must also be clean under ThreadSanitizer (tools/check.sh --tsan).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chunk/chunk_store.h"
#include "common/random.h"
#include "crypto/cipher_suite.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "workload/key_chooser.h"

namespace tdb::object {
namespace {

class Account final : public Object {
 public:
  static constexpr ClassId kClassId = 0x41434354;  // "ACCT"

  Account() = default;
  explicit Account(uint64_t balance) : balance_(balance) {}

  ClassId class_id() const override { return kClassId; }
  void Pickle(Pickler* pickler) const override {
    pickler->PutUint64(balance_);
  }
  Status UnpickleFrom(Unpickler* unpickler) override {
    return unpickler->GetUint64(&balance_);
  }
  size_t ApproxSize() const override { return 32; }

  uint64_t balance() const { return balance_; }
  void set_balance(uint64_t balance) { balance_ = balance; }

 private:
  uint64_t balance_ = 0;
};

constexpr int kAccounts = 8;
constexpr uint64_t kInitialBalance = 1000;
constexpr int kThreads = 4;
constexpr int kTransfersPerThread = 40;
constexpr int kMaxAttemptsPerTransfer = 200;

struct Stack {
  platform::MemUntrustedStore mem;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<ObjectStore> objects;
};

void OpenStack(Stack* stack, bool group_commit = false) {
  if (!stack->secrets.GetSecret().ok()) {
    ASSERT_TRUE(stack->secrets.Provision(Slice("stress-secret")).ok());
  }
  chunk::ChunkStoreOptions chunk_options;
  chunk_options.security = crypto::SecurityConfig::Modern();
  chunk_options.segment_size = 8 * 1024;
  chunk_options.map_fanout = 8;
  chunk_options.cache_bytes = 256 * 1024;  // PR-1 validated-plaintext cache.
  chunk_options.crypto_threads = 4;        // PR-1 commit crypto pipeline.
  chunk_options.group_commit = group_commit;  // PR-3 group commit.
  auto chunks = chunk::ChunkStore::Open(&stack->mem, &stack->secrets,
                                        &stack->counter, chunk_options);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  stack->chunks = std::move(chunks).value();

  ObjectStoreOptions object_options;
  object_options.cache_capacity_bytes = 4 * 1024;  // Force cache misses.
  object_options.lock_timeout = std::chrono::milliseconds(25);
  auto objects = ObjectStore::Open(stack->chunks.get(), object_options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  stack->objects = std::move(objects).value();
  ASSERT_TRUE(stack->objects->registry().Register<Account>(
      Account::kClassId).ok());
}

// Waits a jittered, capped exponential backoff (up to 0.2 ms doubling to
// 6.4 ms) drawn from the thread's own Random before a transaction retries
// after a LockTimeout. Retrying at once lets the thread that just timed out
// win the lock manager's mutex back and re-take its first lock before the
// woken waiter runs, so two transfers that take the same pair of accounts
// in opposite orders can livelock until the attempt budget runs out.
void BackoffAfterLockTimeout(Random* rng, int attempt) {
  const uint64_t cap_us = uint64_t{200} << std::min(attempt, 5);
  std::this_thread::sleep_for(
      std::chrono::microseconds(1 + rng->Uniform(cap_us)));
}

// Seeds the shared accounts with one durable transaction.
std::vector<ObjectId> SeedAccounts(Stack* stack) {
  std::vector<ObjectId> accounts;
  Transaction txn(stack->objects.get());
  for (int i = 0; i < kAccounts; i++) {
    auto oid = txn.Insert(std::make_unique<Account>(kInitialBalance));
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    if (!oid.ok()) return accounts;
    accounts.push_back(oid.value());
  }
  EXPECT_TRUE(txn.Commit(true).ok());
  return accounts;
}

// The core multi-threaded transfer workload: random-order 2PL lock
// acquisition (deadlocks broken by timeout), interleaved read-only audits,
// conservation of the total balance throughout and at the end.
// `p_durable` controls how many transfers also wait on durability — with
// group commit enabled that is the path where concurrent committers share
// one sync and one counter bump.
void RunTransferStress(Stack* stack, const std::vector<ObjectId>& accounts,
                       double p_durable) {
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> lock_timeouts{0};
  std::atomic<uint64_t> audits{0};
  std::atomic<bool> failed{false};

  auto worker = [&](int thread_idx) {
    Random rng(1000 + static_cast<uint64_t>(thread_idx));
    for (int t = 0; t < kTransfersPerThread && !failed.load(); t++) {
      // Every few transfers, audit: a read-only transaction must always
      // see a conserved total (2PL isolation).
      if (t % 8 == 7) {
        for (int attempt = 0;; attempt++) {
          Transaction txn(stack->objects.get());
          uint64_t sum = 0;
          bool retry = false;
          for (ObjectId oid : accounts) {
            auto ref = txn.OpenReadonly<Account>(oid);
            if (!ref.ok()) {
              if (ref.status().IsLockTimeout() &&
                  attempt < kMaxAttemptsPerTransfer) {
                lock_timeouts++;
                retry = true;
                BackoffAfterLockTimeout(&rng, attempt);
              } else {
                failed = true;
              }
              break;
            }
            sum += ref.value()->balance();
          }
          (void)txn.Abort();
          if (failed.load()) return;
          if (!retry) {
            if (sum != kAccounts * kInitialBalance) failed = true;
            audits++;
            break;
          }
        }
        continue;
      }

      // Transfer: two distinct accounts locked in random order.
      uint32_t a = static_cast<uint32_t>(rng.Uniform(kAccounts));
      uint32_t b = static_cast<uint32_t>(rng.Uniform(kAccounts - 1));
      if (b >= a) b++;
      uint64_t amount = rng.Uniform(50) + 1;
      bool durable = rng.Bernoulli(p_durable);

      for (int attempt = 0;; attempt++) {
        Transaction txn(stack->objects.get());
        auto src = txn.OpenWritable<Account>(accounts[a]);
        auto dst = src.ok() ? txn.OpenWritable<Account>(accounts[b])
                            : Result<WritableRef<Account>>(src.status());
        if (!src.ok() || !dst.ok()) {
          Status status = src.ok() ? dst.status() : src.status();
          (void)txn.Abort();
          if (status.IsLockTimeout() && attempt < kMaxAttemptsPerTransfer) {
            lock_timeouts++;
            BackoffAfterLockTimeout(&rng, attempt);
            continue;  // Deadlock broken by timeout: retry.
          }
          failed = true;
          return;
        }
        uint64_t moved = std::min(amount, src.value()->balance());
        src.value()->set_balance(src.value()->balance() - moved);
        dst.value()->set_balance(dst.value()->balance() + moved);
        Status status = txn.Commit(durable);
        if (status.ok()) {
          committed++;
          break;
        }
        if (status.IsLockTimeout() && attempt < kMaxAttemptsPerTransfer) {
          lock_timeouts++;
          BackoffAfterLockTimeout(&rng, attempt);
          continue;
        }
        failed = true;
        return;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; i++) threads.emplace_back(worker, i);
  for (std::thread& thread : threads) thread.join();

  ASSERT_FALSE(failed.load()) << "a transaction failed non-retryably "
                              << "(committed=" << committed.load()
                              << " timeouts=" << lock_timeouts.load() << ")";
  EXPECT_GT(committed.load(), 0u);
  EXPECT_GT(audits.load(), 0u);

  // Conservation after all threads are done.
  {
    Transaction txn(stack->objects.get());
    uint64_t sum = 0;
    for (ObjectId oid : accounts) {
      auto ref = txn.OpenReadonly<Account>(oid);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      sum += ref.value()->balance();
    }
    ASSERT_TRUE(txn.Abort().ok());
    EXPECT_EQ(sum, kAccounts * kInitialBalance);
  }

  // The underlying chunk store (cache + pipeline) is still fully intact.
  uint64_t checked = 0;
  EXPECT_TRUE(stack->chunks->VerifyIntegrity(&checked).ok());
  EXPECT_GE(checked, static_cast<uint64_t>(kAccounts));
}

TEST(TxnStressTest, ConcurrentTransfersConserveTotal) {
  Stack stack;
  OpenStack(&stack);
  if (HasFatalFailure()) return;
  std::vector<ObjectId> accounts = SeedAccounts(&stack);
  if (HasFailure()) return;
  RunTransferStress(&stack, accounts, /*p_durable=*/0.1);
}

// Same workload with group commit enabled and EVERY transfer durable: the
// commit path exercised here is two-stage (early lock release after the
// batch is buffered, ack after the shared group flush). Conservation and
// audit isolation must hold exactly as under the serialized path, and the
// group-acked state must survive a close + reopen.
TEST(TxnStressTest, GroupCommitDurableTransfersConserveTotal) {
  Stack stack;
  OpenStack(&stack, /*group_commit=*/true);
  if (HasFatalFailure()) return;
  std::vector<ObjectId> accounts = SeedAccounts(&stack);
  if (HasFailure()) return;
  RunTransferStress(&stack, accounts, /*p_durable=*/1.0);
  if (HasFailure()) return;

  chunk::ChunkStoreStats stats = stack.chunks->Stats();
  EXPECT_GT(stats.durable_commits, 0u);
  // Amortization can only merge syncs, never add them.
  EXPECT_LE(stats.log_syncs, stats.durable_commits);
  EXPECT_LE(stats.counter_bumps, stats.durable_commits);

  // Every group-acked commit must survive recovery.
  stack.objects.reset();
  ASSERT_TRUE(stack.chunks->Close().ok());
  stack.chunks.reset();
  OpenStack(&stack, /*group_commit=*/true);
  if (HasFatalFailure()) return;
  Transaction txn(stack.objects.get());
  uint64_t sum = 0;
  for (ObjectId oid : accounts) {
    auto ref = txn.OpenReadonly<Account>(oid);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    sum += ref.value()->balance();
  }
  EXPECT_EQ(sum, kAccounts * kInitialBalance);
}

// Zipfian hot-key contention: transfers pick BOTH endpoints from a
// zipfian distribution (theta = 0.99) over a larger account pool, so a
// handful of hot accounts absorb most of the lock traffic — the
// worst-case 2PL shape the uniform test above cannot produce. Conservation
// must hold exactly, and the store's lock accounting must stay coherent:
// acquisitions grew, every timeout was first a wait, and deadlock-aborts
// never exceed aborts. (No lower bound on timeouts: on a single-CPU run
// the threads may serialize and never collide.)
TEST(TxnStressTest, ZipfianHotKeyContentionConservesTotal) {
  constexpr int kHotAccounts = 32;
  constexpr int kHotThreads = 4;
  constexpr int kHotTransfersPerThread = 60;

  Stack stack;
  OpenStack(&stack);
  if (HasFatalFailure()) return;
  std::vector<ObjectId> accounts;
  {
    Transaction txn(stack.objects.get());
    for (int i = 0; i < kHotAccounts; i++) {
      auto oid = txn.Insert(std::make_unique<Account>(kInitialBalance));
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      accounts.push_back(oid.value());
    }
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  const ObjectStoreStats before = stack.objects->Stats();

  const workload::ZipfianChooser zipf(kHotAccounts);  // Shared, read-only.
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<bool> failed{false};

  auto worker = [&](int thread_idx) {
    Random rng(4000 + static_cast<uint64_t>(thread_idx));
    for (int t = 0; t < kHotTransfersPerThread && !failed.load(); t++) {
      uint32_t a = static_cast<uint32_t>(zipf.Next(&rng));
      uint32_t b = a;
      while (b == a) b = static_cast<uint32_t>(zipf.Next(&rng));
      uint64_t amount = rng.Uniform(50) + 1;
      for (int attempt = 0;; attempt++) {
        Transaction txn(stack.objects.get());
        auto src = txn.OpenWritable<Account>(accounts[a]);
        auto dst = src.ok() ? txn.OpenWritable<Account>(accounts[b])
                            : Result<WritableRef<Account>>(src.status());
        Status status =
            src.ok() && dst.ok() ? Status::OK()
                                 : (src.ok() ? dst.status() : src.status());
        if (status.ok()) {
          uint64_t moved = std::min(amount, src.value()->balance());
          src.value()->set_balance(src.value()->balance() - moved);
          dst.value()->set_balance(dst.value()->balance() + moved);
          status = txn.Commit(/*durable=*/t % 16 == 0);
          if (status.ok()) {
            committed++;
            break;
          }
        } else {
          (void)txn.Abort();
        }
        if (status.IsLockTimeout() && attempt < kMaxAttemptsPerTransfer) {
          retries++;
          BackoffAfterLockTimeout(&rng, attempt);
          continue;
        }
        failed = true;
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < kHotThreads; i++) threads.emplace_back(worker, i);
  for (std::thread& thread : threads) thread.join();

  ASSERT_FALSE(failed.load())
      << "non-retryable failure (committed=" << committed.load()
      << " retries=" << retries.load() << ")";
  EXPECT_EQ(committed.load(),
            static_cast<uint64_t>(kHotThreads) * kHotTransfersPerThread);

  // Conservation over the full pool.
  {
    Transaction txn(stack.objects.get());
    uint64_t sum = 0;
    for (ObjectId oid : accounts) {
      auto ref = txn.OpenReadonly<Account>(oid);
      ASSERT_TRUE(ref.ok()) << ref.status().ToString();
      sum += ref.value()->balance();
    }
    ASSERT_TRUE(txn.Abort().ok());
    EXPECT_EQ(sum, static_cast<uint64_t>(kHotAccounts) * kInitialBalance);
  }

  // Lock accounting sanity (deltas over this workload only).
  const ObjectStoreStats after = stack.objects->Stats();
  EXPECT_GE(after.lock_acquisitions - before.lock_acquisitions,
            2 * committed.load())
      << "every transfer locks two accounts";
  EXPECT_LE(after.lock_timeouts - before.lock_timeouts,
            after.lock_waits - before.lock_waits)
      << "a timeout is a wait that expired";
  EXPECT_GE(after.lock_timeouts - before.lock_timeouts, retries.load())
      << "every observed LockTimeout status came from an expired wait";
  EXPECT_LE(after.deadlock_aborts, after.aborts);
  EXPECT_GT(after.commits, before.commits);

  uint64_t checked = 0;
  EXPECT_TRUE(stack.chunks->VerifyIntegrity(&checked).ok());
}

// Same workload shape with locking disabled and a single thread: §4.2.3's
// "switch off locking" mode must still commit and conserve the total.
TEST(TxnStressTest, LockingDisabledSingleThreaded) {
  Stack stack;
  ASSERT_TRUE(stack.secrets.Provision(Slice("stress-secret")).ok());
  chunk::ChunkStoreOptions chunk_options;
  chunk_options.security = crypto::SecurityConfig::Modern();
  chunk_options.segment_size = 8 * 1024;
  chunk_options.cache_bytes = 64 * 1024;
  auto chunks = chunk::ChunkStore::Open(&stack.mem, &stack.secrets,
                                        &stack.counter, chunk_options);
  ASSERT_TRUE(chunks.ok());
  stack.chunks = std::move(chunks).value();
  ObjectStoreOptions object_options;
  object_options.locking_enabled = false;
  auto objects = ObjectStore::Open(stack.chunks.get(), object_options);
  ASSERT_TRUE(objects.ok());
  stack.objects = std::move(objects).value();
  ASSERT_TRUE(stack.objects->registry().Register<Account>(
      Account::kClassId).ok());

  std::vector<ObjectId> accounts;
  {
    Transaction txn(stack.objects.get());
    for (int i = 0; i < kAccounts; i++) {
      accounts.push_back(
          txn.Insert(std::make_unique<Account>(kInitialBalance)).value());
    }
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  Random rng(77);
  for (int t = 0; t < 100; t++) {
    uint32_t a = static_cast<uint32_t>(rng.Uniform(kAccounts));
    uint32_t b = static_cast<uint32_t>(rng.Uniform(kAccounts - 1));
    if (b >= a) b++;
    Transaction txn(stack.objects.get());
    auto src = txn.OpenWritable<Account>(accounts[a]);
    auto dst = txn.OpenWritable<Account>(accounts[b]);
    ASSERT_TRUE(src.ok() && dst.ok());
    uint64_t moved = std::min<uint64_t>(rng.Uniform(50) + 1,
                                        src.value()->balance());
    src.value()->set_balance(src.value()->balance() - moved);
    dst.value()->set_balance(dst.value()->balance() + moved);
    ASSERT_TRUE(txn.Commit(t % 10 == 0).ok());
  }
  Transaction txn(stack.objects.get());
  uint64_t sum = 0;
  for (ObjectId oid : accounts) {
    sum += txn.OpenReadonly<Account>(oid).value()->balance();
  }
  EXPECT_EQ(sum, kAccounts * kInitialBalance);
}

}  // namespace
}  // namespace tdb::object
