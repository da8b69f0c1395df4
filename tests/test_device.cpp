// Execution substrate: thread-pool completion signaling, deadlock safety of
// nested parallel_for (the 1-core-host case), caller participation in
// parallel_for, the per-rank executor lanes, the device's key pass and sort,
// the LET channel layer, and the thread-budget policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "device/device.hpp"
#include "device/thread_pool.hpp"
#include "domain/channel.hpp"
#include "domain/executor.hpp"
#include "domain/simulation.hpp"
#include "domain/transport.hpp"
#include "same_columns.hpp"
#include "util/ic.hpp"
#include "util/trace.hpp"

namespace bonsai {
namespace {

TEST(ThreadPool, SubmitTaskFutureSignalsCompletion) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::future<void> done = pool.submit_task([&] { ++ran; });
  done.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsInlineInsteadOfDeadlocking) {
  // A one-worker pool models a 1-core host (hardware_concurrency / nranks
  // clamps to 1): a nested parallel_for would block in wait_idle while
  // occupying the only worker able to drain the queue.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++count; });
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPool, NestedParallelForFromSubmittedTask) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::future<void> done = pool.submit_task([&] {
    pool.parallel_for(16, [&](std::size_t) { ++count; });
  });
  done.get();
  EXPECT_EQ(count.load(), 16);
}

// A one-thread rank has a Device without workers: its lane computes every
// stage itself instead of handing each loop to a second thread.
TEST(ThreadPool, ZeroWorkersRunParallelForOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  EXPECT_EQ(Device(1).num_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  int count = 0, off_caller = 0;
  pool.parallel_for(100, [&](std::size_t) {
    ++count;
    if (std::this_thread::get_id() != caller) ++off_caller;
  });
  EXPECT_EQ(count, 100);
  EXPECT_EQ(off_caller, 0);
}

// The caller takes chunks alongside the workers; when its chunk throws, the
// workers stop taking new ones and parallel_for returns only after they
// finish, so fn's captures stay alive for as long as anyone calls it.
TEST(ThreadPool, ExceptionOnTheCallerWaitsForWorkers) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> running{0}, calls{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t) {
                                   ++calls;
                                   if (std::this_thread::get_id() == caller)
                                     throw std::runtime_error("caller chunk");
                                   ++running;
                                   std::this_thread::sleep_for(std::chrono::milliseconds(2));
                                   --running;
                                 },
                                 /*chunk=*/1),
               std::runtime_error);
  EXPECT_EQ(running.load(), 0);
  EXPECT_LT(calls.load(), 64);  // the workers stopped early
}

TEST(ThreadPool, ParallelForFromAnotherPoolsWorkerStillDispatches) {
  ThreadPool outer(1), inner(2);
  std::atomic<int> count{0};
  outer.submit_task([&] { inner.parallel_for(10, [&](std::size_t) { ++count; }); }).get();
  EXPECT_EQ(count.load(), 10);
}

TEST(Executor, LanesRunJobsInSubmissionOrder) {
  domain::Executor exec(3);
  ASSERT_EQ(exec.num_lanes(), 3u);
  std::vector<int> order;
  std::future<void> first = exec.run(1, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    order.push_back(1);
  });
  std::future<void> second = exec.run(1, [&] { order.push_back(2); });
  second.get();
  first.get();
  // Same lane means same thread: no data race on `order`, strict FIFO.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Executor, LanesRunConcurrently) {
  domain::Executor exec(2);
  domain::Channel<int> a_to_b, b_to_a;
  // Cross-lane rendezvous: deadlocks (and times out in ctest) unless the two
  // lanes genuinely run at the same time.
  std::future<void> a = exec.run(0, [&] {
    a_to_b.send(1);
    EXPECT_TRUE(b_to_a.recv().has_value());
  });
  std::future<void> b = exec.run(1, [&] {
    EXPECT_TRUE(a_to_b.recv().has_value());
    b_to_a.send(2);
  });
  a.get();
  b.get();
}

TEST(Channel, SendRecvTryRecvClose) {
  domain::Channel<int> ch;
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(7);
  ch.send(8);
  EXPECT_EQ(ch.recv().value(), 7);  // FIFO
  EXPECT_EQ(ch.try_recv().value(), 8);
  ch.close();
  EXPECT_TRUE(ch.closed());
  EXPECT_FALSE(ch.recv().has_value());  // closed + drained -> nullopt, no block
}

TEST(Channel, RecvBlocksUntilSend) {
  domain::Channel<int> ch;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ch.send(42);
  });
  EXPECT_EQ(ch.recv().value(), 42);
  producer.join();
}

TEST(LetExchange, RemainingCountsFollowActiveMask) {
  domain::InProcTransport transport(4);
  domain::LetExchange net(transport, {1, 0, 1, 1});  // rank 1 is empty
  EXPECT_EQ(net.remaining(0), 2u);
  EXPECT_EQ(net.remaining(1), 0u);
  EXPECT_EQ(net.remaining(2), 2u);
  EXPECT_FALSE(net.recv(1).has_value());  // inactive rank: returns immediately

  net.post(0, 2, {}, 0.0);
  net.post(3, 2, {}, 0.0);
  EXPECT_EQ(net.recv(2).value().src, 0);
  EXPECT_EQ(net.remaining(2), 1u);  // counts down as arrivals are consumed
  EXPECT_EQ(net.recv(2).value().src, 3);
  EXPECT_FALSE(net.recv(2).has_value());  // all expected LETs consumed
}

TEST(LetExchange, NoActiveRanksExpectsNothing) {
  domain::InProcTransport transport(2);
  domain::LetExchange net(transport, {0, 0});
  EXPECT_EQ(net.remaining(0), 0u);
  EXPECT_FALSE(net.recv(0).has_value());
}

TEST(LetExchange, CloseBeforeAllArrivalsFailsFast) {
  domain::InProcTransport transport(3);
  domain::LetExchange net(transport, {1, 1, 1});
  net.post(1, 0, {}, 0.0);
  net.close(0);  // one of rank 0's two expected LETs will never come
  EXPECT_EQ(net.recv(0).value().src, 1);  // pending messages still drain
  EXPECT_THROW(net.recv(0), std::logic_error);  // then throw, never block
}

TEST(LetExchange, AccountsWireBytesAndFrames) {
  domain::InProcTransport transport(2);
  domain::LetExchange net(transport, {1, 1});
  const std::size_t bytes = net.post(0, 1, {}, 0.0);
  EXPECT_GT(bytes, 0u);  // even an empty LET carries a frame header
  EXPECT_EQ(net.encode_stats(0).frames, 1u);
  EXPECT_EQ(net.encode_stats(0).bytes, bytes);
  // The decode is timed by a wire.decode.let span on the receiver's log.
  std::vector<trace::Span> log;
  std::optional<domain::wire::LetMessage> msg;
  {
    trace::BindLog bind(log);
    msg = net.recv(1);
  }
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->wire_bytes, bytes);
  const auto decode = std::find_if(log.begin(), log.end(), [](const trace::Span& s) {
    return s.name == "wire.decode.let";
  });
  ASSERT_NE(decode, log.end());
  EXPECT_EQ(decode->bytes, static_cast<std::int64_t>(bytes));
  EXPECT_EQ(decode->peer, 0);
}

TEST(Device, SortParticlesEqualsSerialSortOnEveryColumn) {
  // Distinct force and work values per particle, so a column the
  // permutation skipped or mixed up would show. The device fills the keys
  // itself, in parallel at 4 threads.
  ParticleSet parts = make_plummer(20000, 71);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto v = static_cast<double>(i);
    parts.ax[i] = v + 0.125;
    parts.ay[i] = v + 0.25;
    parts.az[i] = v + 0.375;
    parts.pot[i] = v + 0.5;
    parts.work[i] = v + 0.625;
  }
  const sfc::KeySpace space(parts.bounds());
  for (std::size_t i = 0; i < parts.size(); ++i) parts.key[i] = space.key(parts.pos(i));
  ParticleSet serial = parts;
  const std::vector<std::uint32_t> perm = sort_by_keys(serial, space);
  ParticleSet::each_column([&](auto col) {
    for (std::size_t i = 0; i < perm.size(); ++i)
      ASSERT_EQ((serial.*col)[i], (parts.*col)[perm[i]]);
  });
  for (const std::size_t threads : {1, 4}) {
    ParticleSet sorted = parts;
    Device device(threads);
    device.compute_keys(sorted, space);
    device.sort_particles(sorted, space);
    expect_same_columns(sorted, serial, std::to_string(threads) + " device thread(s)");
  }
}

TEST(ThreadsFor, DefaultPartitionsHostAcrossRanks) {
  domain::SimConfig cfg;
  cfg.nranks = 4;
  EXPECT_EQ(domain::threads_for(cfg, 8), 2u);
  EXPECT_EQ(domain::threads_for(cfg, 16), 4u);
  EXPECT_EQ(domain::threads_for(cfg, 3), 1u);  // fewer cores than ranks: 1 each
  EXPECT_EQ(domain::threads_for(cfg, 1), 1u);  // 1-core host
  EXPECT_EQ(domain::threads_for(cfg, 0), 1u);  // unknown hardware_concurrency
  cfg.nranks = 1;
  EXPECT_EQ(domain::threads_for(cfg, 8), 8u);  // single rank owns the host
}

TEST(ThreadsFor, ExplicitRequestClampedToConcurrencyBudget) {
  domain::SimConfig cfg;
  cfg.nranks = 4;
  cfg.threads_per_rank = 16;
  EXPECT_EQ(domain::threads_for(cfg, 8), 2u);  // concurrent ranks: per-rank share
  cfg.threads_per_rank = 1;
  EXPECT_EQ(domain::threads_for(cfg, 8), 1u);  // under-asking is honored
}

}  // namespace
}  // namespace bonsai
