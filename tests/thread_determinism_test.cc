// Determinism regression test for the threaded NN substrate: training and
// sampling a MadeModel with the global pool at 1 vs. 4 threads must produce
// bit-identical losses and samples for a fixed seed. This pins the contract
// documented in src/nn/README.md — shard boundaries and accumulation orders
// depend only on problem shapes, never on the thread count.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/incompleteness.h"
#include "datagen/synthetic.h"
#include "exec/exec_control.h"
#include "nn/adam.h"
#include "nn/inference_scratch.h"
#include "nn/made.h"
#include "nn/matrix.h"
#include "restore/db.h"

namespace restore {
namespace {

struct TrainResult {
  std::vector<float> losses;
  std::vector<int32_t> samples;
  std::vector<float> probs;
};

/// Trains a small MADE for a few steps and then samples from it, entirely
/// driven by the fixed seed.
TrainResult TrainAndSample(uint64_t seed) {
  Rng rng(seed);
  MadeConfig config;
  // One wide attribute (vocab 300) forces the loss row grain down to
  // max(16, 4096/300) = 16, so the 96-row batch spans 6 shards and the
  // per-shard partial-sum reduction order is actually exercised — a single
  // collapsed shard at width 1 would produce different float sums.
  config.vocab_sizes = {7, 300, 11, 3};
  config.embed_dim = 4;
  config.hidden_dim = 32;
  config.num_layers = 2;
  MadeModel made(config, rng);

  const size_t batch = 96;
  IntMatrix codes(batch, config.vocab_sizes.size());
  for (size_t r = 0; r < batch; ++r) {
    for (size_t a = 0; a < config.vocab_sizes.size(); ++a) {
      codes.at(r, a) = static_cast<int32_t>(
          rng.NextUint64(static_cast<uint64_t>(config.vocab_sizes[a])));
    }
  }

  std::vector<Param*> params;
  made.CollectParams(&params);
  AdamOptimizer adam(params);

  TrainResult result;
  const Matrix empty_context;
  const Matrix ones(batch, config.vocab_sizes.size(), 1.0f);
  Matrix logits;
  Matrix dlogits;
  for (int step = 0; step < 8; ++step) {
    made.Forward(codes, empty_context, &logits);
    result.losses.push_back(
        made.NllLossWeighted(logits, codes, 0, ones, &dlogits));
    made.Backward(dlogits, nullptr);
    adam.Step();
  }

  made.FinalizeForInference();
  MadeScratch scratch;
  IntMatrix sampled(batch, config.vocab_sizes.size(), 0);
  Matrix recorded;
  made.SampleRange(&sampled, empty_context, 0, config.vocab_sizes.size(), rng,
                   /*record_attr=*/2, &recorded, &scratch);
  for (size_t r = 0; r < batch; ++r) {
    for (size_t a = 0; a < config.vocab_sizes.size(); ++a) {
      result.samples.push_back(sampled.at(r, a));
    }
  }
  result.probs.assign(recorded.data(), recorded.data() + recorded.size());
  return result;
}

TEST(ThreadDeterminismTest, TrainingAndSamplingIdenticalAt1And4Threads) {
  ThreadPool::SetGlobalWidth(1);
  const TrainResult single = TrainAndSample(/*seed=*/42);
  ThreadPool::SetGlobalWidth(4);
  const TrainResult quad = TrainAndSample(/*seed=*/42);
  ThreadPool::SetGlobalWidth(1);
  const TrainResult single_again = TrainAndSample(/*seed=*/42);
  // Restore the environment-default pool for any later test in this binary.
  ThreadPool::SetGlobalWidth(0);

  ASSERT_EQ(single.losses.size(), quad.losses.size());
  for (size_t i = 0; i < single.losses.size(); ++i) {
    // Bit-identical, not approximately equal.
    EXPECT_EQ(single.losses[i], quad.losses[i]) << "loss step " << i;
    EXPECT_EQ(single.losses[i], single_again.losses[i]) << "rerun step " << i;
  }
  EXPECT_TRUE(std::isfinite(single.losses.front()));
  EXPECT_LT(single.losses.back(), single.losses.front())
      << "training should reduce the loss";

  ASSERT_EQ(single.samples.size(), quad.samples.size());
  for (size_t i = 0; i < single.samples.size(); ++i) {
    ASSERT_EQ(single.samples[i], quad.samples[i]) << "sample " << i;
  }
  ASSERT_EQ(single.probs.size(), quad.probs.size());
  for (size_t i = 0; i < single.probs.size(); ++i) {
    ASSERT_EQ(single.probs[i], quad.probs[i]) << "recorded prob " << i;
  }
}

// The sampling path (SampleRange) must be bit-identical across thread
// counts: its unit-major trunk and logit blocks shard 128-row blocks with a
// shape-only grain, and the uniforms are pre-drawn on the calling thread.
// The second case samples a mid range [2, 5) under a context, the
// SynthesizeHop shape, over 600 rows, so the row blocks really split at
// width 4. (CI's TSan job runs this binary repeatedly, so the sampling path
// is also raced for data coherence.)
struct SampleOnlyResult {
  std::vector<int32_t> samples;
  std::vector<float> probs;
};

SampleOnlyResult SampleSliced(uint64_t seed, bool mid_range_with_context) {
  Rng rng(seed);
  MadeConfig config;
  config.vocab_sizes = {9, 300, 17, 40, 5, 12};
  config.embed_dim = 6;
  config.hidden_dim = 40;
  config.num_layers = 2;
  config.context_dim = mid_range_with_context ? 7 : 0;
  MadeModel made(config, rng);
  made.FinalizeForInference();

  const size_t batch = mid_range_with_context ? 600 : 160;
  const size_t first = mid_range_with_context ? 2 : 0;
  const size_t end = mid_range_with_context ? 5 : config.vocab_sizes.size();
  IntMatrix codes(batch, config.vocab_sizes.size(), 0);
  Matrix context(mid_range_with_context ? batch : 0, config.context_dim);
  for (size_t i = 0; i < context.size(); ++i) {
    context.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  for (size_t r = 0; r < batch; ++r) {
    for (size_t a = 0; a < config.vocab_sizes.size(); ++a) {
      codes.at(r, a) = static_cast<int32_t>(
          rng.NextUint64(static_cast<uint64_t>(config.vocab_sizes[a])));
    }
  }
  Matrix recorded;
  MadeScratch scratch;
  made.SampleRange(&codes, context, first, end, rng, /*record_attr=*/3,
                   &recorded, &scratch);
  SampleOnlyResult result;
  for (size_t r = 0; r < batch; ++r) {
    for (size_t a = 0; a < config.vocab_sizes.size(); ++a) {
      result.samples.push_back(codes.at(r, a));
    }
  }
  result.probs.assign(recorded.data(), recorded.data() + recorded.size());
  return result;
}

TEST(ThreadDeterminismTest, SlicedSamplingIdenticalAt1And4Threads) {
  for (const bool mid_range_with_context : {false, true}) {
    ThreadPool::SetGlobalWidth(1);
    const SampleOnlyResult single = SampleSliced(7, mid_range_with_context);
    ThreadPool::SetGlobalWidth(4);
    const SampleOnlyResult quad = SampleSliced(7, mid_range_with_context);
    ThreadPool::SetGlobalWidth(0);

    ASSERT_EQ(single.samples.size(), quad.samples.size());
    for (size_t i = 0; i < single.samples.size(); ++i) {
      ASSERT_EQ(single.samples[i], quad.samples[i])
          << "sample " << i << " mid_range_with_context="
          << mid_range_with_context;
    }
    ASSERT_FALSE(single.probs.empty());
    ASSERT_EQ(single.probs.size(), quad.probs.size());
    for (size_t i = 0; i < single.probs.size(); ++i) {
      ASSERT_EQ(single.probs[i], quad.probs[i])
          << "recorded prob " << i << " mid_range_with_context="
          << mid_range_with_context;
    }
  }
}

// ---- Db-level concurrency ---------------------------------------------------

EngineConfig FastDbConfig() {
  EngineConfig config;
  config.model.epochs = 4;
  config.model.min_train_steps = 120;
  config.model.hidden_dim = 24;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.max_candidates = 2;
  return config;
}

Database MakeIncompleteSynthetic(uint64_t seed) {
  SyntheticConfig data_config;
  data_config.num_parents = 220;
  data_config.predictability = 0.85;
  data_config.seed = seed;
  auto complete = GenerateSynthetic(data_config);
  EXPECT_TRUE(complete.ok());
  BiasedRemovalConfig removal;
  removal.table = "table_b";
  removal.column = "b";
  removal.keep_rate = 0.5;
  removal.removal_correlation = 0.5;
  removal.seed = seed + 1;
  auto incomplete = ApplyBiasedRemoval(*complete, removal);
  EXPECT_TRUE(incomplete.ok());
  EXPECT_TRUE(ThinTupleFactors(&*incomplete, 0.3, seed + 2).ok());
  return std::move(incomplete).value();
}

/// The fixed mixed workload every client runs: two ad-hoc SQL queries and
/// two prepared parameterized queries over the same table sets.
struct Workload {
  std::vector<std::string> adhoc;
  std::vector<std::pair<std::string, Value>> prepared;  // sql, bound param
};

Workload MakeWorkload(const Database& db) {
  const std::string b0 =
      db.GetTable("table_b").value()->GetColumn("b").value()->dictionary()
          ->ValueOf(0);
  Workload w;
  w.adhoc = {
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;",
      "SELECT COUNT(*) FROM table_b GROUP BY b;",
  };
  w.prepared = {
      {"SELECT COUNT(*) FROM table_b WHERE b != ?;", Value::Categorical(b0)},
      {"SELECT COUNT(*) FROM table_a NATURAL JOIN table_b WHERE b = ?;",
       Value::Categorical(b0)},
  };
  return w;
}

/// Runs the whole workload on one session, alternating sync and async styles
/// by `flavor`, and returns the results in workload order.
std::vector<ResultSet> RunWorkload(const Session& session,
                                   const Workload& workload, int flavor) {
  std::vector<ResultSet> out;
  for (size_t i = 0; i < workload.adhoc.size(); ++i) {
    if ((flavor + static_cast<int>(i)) % 2 == 0) {
      ResultSetFuture f = session.ExecuteAsync(workload.adhoc[i]);
      Result<ResultSet>& r = f.Get();
      EXPECT_TRUE(r.ok()) << r.status();
      out.push_back(*r);
    } else {
      auto r = session.Execute(workload.adhoc[i]);
      EXPECT_TRUE(r.ok()) << r.status();
      out.push_back(*r);
    }
  }
  for (size_t i = 0; i < workload.prepared.size(); ++i) {
    auto prepared = session.Prepare(workload.prepared[i].first);
    EXPECT_TRUE(prepared.ok()) << prepared.status();
    const std::vector<Value> params{workload.prepared[i].second};
    if ((flavor + static_cast<int>(i)) % 2 == 0) {
      ResultSetFuture f = prepared->RunAsync(params);
      Result<ResultSet>& r = f.Get();
      EXPECT_TRUE(r.ok()) << r.status();
      out.push_back(*r);
    } else {
      auto r = prepared->Run(params);
      EXPECT_TRUE(r.ok()) << r.status();
      out.push_back(*r);
    }
  }
  return out;
}

TEST(DbConcurrencyTest, HammeredDbMatchesSequentialAndTrainsEachPathOnce) {
  Database incomplete = MakeIncompleteSynthetic(/*seed=*/77);
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  const Workload workload = MakeWorkload(incomplete);

  // Sequential baseline on a fresh Db.
  ThreadPool::SetGlobalWidth(1);
  auto seq_db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(FastDbConfig()));
  ASSERT_TRUE(seq_db.ok()) << seq_db.status();
  const std::vector<ResultSet> baseline =
      RunWorkload((*seq_db)->CreateSession(), workload, /*flavor=*/1);
  const size_t baseline_trained = (*seq_db)->models_trained();
  EXPECT_GT(baseline_trained, 0u);

  // 4 client threads hammering ONE fresh Db with the same mixed workload,
  // on a 4-wide pool (async queries and training share it).
  ThreadPool::SetGlobalWidth(4);
  auto conc_db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(FastDbConfig()));
  ASSERT_TRUE(conc_db.ok()) << conc_db.status();
  constexpr int kClients = 4;
  std::vector<std::vector<ResultSet>> per_client(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        per_client[c] =
            RunWorkload((*conc_db)->CreateSession(), workload, /*flavor=*/c);
      });
    }
    for (auto& t : clients) t.join();
  }
  ThreadPool::SetGlobalWidth(0);  // restore the environment default

  // Every client saw exactly the sequential answers.
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(per_client[c].size(), baseline.size()) << "client " << c;
    for (size_t q = 0; q < baseline.size(); ++q) {
      EXPECT_EQ(per_client[c][q], baseline[q])
          << "client " << c << " query " << q;
    }
  }

  // Despite 4 clients racing on the same lazily-trained models, every
  // candidate path was trained exactly once (the once-latch contract), and
  // exactly the same paths as in the sequential run.
  EXPECT_EQ((*conc_db)->models_trained(), baseline_trained);

  // And the trained models are the ones sequential training produced.
  auto seq_cands = (*seq_db)->CandidatesFor("table_b");
  auto conc_cands = (*conc_db)->CandidatesFor("table_b");
  ASSERT_TRUE(seq_cands.ok());
  ASSERT_TRUE(conc_cands.ok());
  ASSERT_EQ(seq_cands->size(), conc_cands->size());
  for (size_t i = 0; i < seq_cands->size(); ++i) {
    EXPECT_EQ((*seq_cands)[i].path, (*conc_cands)[i].path);
    EXPECT_EQ((*seq_cands)[i].model->test_loss(),
              (*conc_cands)[i].model->test_loss())
        << "candidate " << i;
  }
}

TEST(InferenceScratchPoolTest, LeasesRecycleArenas) {
  InferenceScratchPool pool;
  EXPECT_EQ(pool.idle(), 0u);
  InferenceScratch* arena_a = nullptr;
  InferenceScratch* arena_b = nullptr;
  {
    InferenceScratchPool::Lease a = pool.Acquire();
    InferenceScratchPool::Lease b = pool.Acquire();
    arena_a = a.get();
    arena_b = b.get();
    ASSERT_NE(arena_a, nullptr);
    ASSERT_NE(arena_b, nullptr);
    EXPECT_NE(arena_a, arena_b) << "concurrent leases must not share arenas";
    EXPECT_EQ(pool.idle(), 0u) << "leased arenas are not idle";
  }
  // Both arenas returned to the freelist, and a new lease reuses one of
  // them instead of allocating a third.
  EXPECT_EQ(pool.idle(), 2u);
  InferenceScratchPool::Lease reused = pool.Acquire();
  EXPECT_EQ(pool.idle(), 1u);
  EXPECT_TRUE(reused.get() == arena_a || reused.get() == arena_b);
}

// With the per-model inference mutex gone (scratch-arena reentrancy, see
// src/nn/inference_scratch.h), concurrent forward passes over ONE hot model
// must still be bit-identical to sequential execution. This hammer removes
// every other source of concurrency from the picture: models are fully
// trained BEFORE the clients start (no training races possible) and the
// completion cache is disabled, so all 4 clients drive truly simultaneous
// SampleRange/PredictDistribution passes through the same PathModel.
TEST(DbConcurrencyTest, SingleHotPathHammerBitIdenticalWithoutMutex) {
  Database incomplete = MakeIncompleteSynthetic(/*seed=*/91);
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  EngineConfig config = FastDbConfig();
  config.enable_cache = false;  // every execution re-runs model inference

  // The hot query joins through the completion path, so each execution runs
  // tuple-factor prediction + attribute synthesis on the shared model.
  const std::string sql =
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";

  ThreadPool::SetGlobalWidth(4);
  auto db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(config));
  ASSERT_TRUE(db.ok()) << db.status();
  Session warmup = (*db)->CreateSession();

  // Train everything up front on the main thread; the hammer phase must not
  // train anything.
  auto baseline = warmup.Execute(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  const size_t trained_before = (*db)->models_trained();
  EXPECT_GT(trained_before, 0u);

  constexpr int kClients = 4;
  constexpr int kItersPerClient = 6;
  std::vector<std::vector<ResultSet>> per_client(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Session session = (*db)->CreateSession();
        for (int i = 0; i < kItersPerClient; ++i) {
          auto r = session.Execute(sql);
          ASSERT_TRUE(r.ok()) << "client " << c << ": " << r.status();
          per_client[c].push_back(*r);
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  ThreadPool::SetGlobalWidth(0);

  EXPECT_EQ((*db)->models_trained(), trained_before)
      << "the hammer phase must not train";
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(per_client[c].size(), static_cast<size_t>(kItersPerClient));
    for (int i = 0; i < kItersPerClient; ++i) {
      EXPECT_EQ(per_client[c][i], *baseline)
          << "client " << c << " iteration " << i;
    }
  }
}

// Publishing an epoch publishes an empty snapshot index. Four clients that
// make the first touch of a fresh epoch at once race on every slot's
// latch; each must read the one build, so every answer equals a 1-thread
// run on a twin Db byte for byte.
TEST(DbConcurrencyTest, ConcurrentFirstTouchOfFreshEpochMatchesOneThread) {
  Database incomplete = MakeIncompleteSynthetic(/*seed=*/93);
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  EngineConfig config = FastDbConfig();
  config.enable_cache = false;  // every execution re-runs the completion
  const std::string sql =
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";
  const std::string b0 = incomplete.GetTable("table_b").value()
                             ->GetColumn("b").value()->dictionary()
                             ->ValueOf(0);
  std::vector<std::vector<Value>> appended;
  for (int64_t i = 0; i < 20; ++i) {
    appended.push_back({Value::Int64(880000 + i), Value::Int64(i % 40),
                        Value::Categorical(b0)});
  }

  // Trains at epoch 0, then publishes epoch 1 with a fresh index.
  auto open_and_append = [&]() -> std::shared_ptr<Db> {
    auto db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(config));
    EXPECT_TRUE(db.ok()) << db.status();
    EXPECT_TRUE((*db)->CreateSession().Execute(sql).ok());
    EXPECT_TRUE((*db)->Append("table_b", appended).ok());
    return *db;
  };

  ThreadPool::SetGlobalWidth(1);
  std::shared_ptr<Db> twin = open_and_append();
  auto baseline = twin->CreateSession().Execute(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  ThreadPool::SetGlobalWidth(4);
  std::shared_ptr<Db> db = open_and_append();
  constexpr int kClients = 4;
  std::vector<Result<ResultSet>> answers(kClients,
                                         Status::Internal("not run"));
  std::atomic<int> ready{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Session session = db->CreateSession();
        ready.fetch_add(1);
        while (ready.load() < kClients) {
        }
        answers[c] = session.Execute(sql);
      });
    }
    for (auto& t : clients) t.join();
  }
  ThreadPool::SetGlobalWidth(0);

  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(answers[c].ok()) << "client " << c << ": "
                                 << answers[c].status();
    EXPECT_EQ(*answers[c], *baseline) << "client " << c;
  }
}

// An UNCANCELLED run under full QueryOptions (cancellable token, far
// deadline, generous budget) must be bit-identical to a run with no options
// at all: the cooperative checks may not touch the sampling RNG.
TEST(DbConcurrencyTest, UncancelledOptionsRunBitIdenticalToPlainRun) {
  Database incomplete = MakeIncompleteSynthetic(/*seed=*/95);
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  EngineConfig config = FastDbConfig();
  config.enable_cache = false;  // force model inference on every execution

  const std::string sql =
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";

  auto plain_db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(config));
  ASSERT_TRUE(plain_db.ok()) << plain_db.status();
  auto plain = (*plain_db)->CreateSession().Execute(sql);
  ASSERT_TRUE(plain.ok()) << plain.status();

  auto opt_db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(config));
  ASSERT_TRUE(opt_db.ok()) << opt_db.status();
  QueryOptions options;
  options.cancel = CancellationToken::Cancellable();
  options.WithTimeout(std::chrono::hours(1));
  options.max_completed_rows = 1u << 30;
  options.batch_rows = 3;
  size_t checkpoints = 0;
  options.progress = [&checkpoints](const ExecStats&) { ++checkpoints; };
  auto with_options = (*opt_db)->CreateSession().Execute(sql, options);
  ASSERT_TRUE(with_options.ok()) << with_options.status();

  EXPECT_EQ(*with_options, *plain);
  EXPECT_GT(checkpoints, 0u) << "the cooperative checks did run";
}

// The cancel hammer (run repeatedly under TSan by CI): 4 client threads
// fire queries through ONE pre-trained Db while racing RequestCancel()
// against the execution from a separate canceller thread per query. Every
// outcome must be either the bit-identical answer or a clean
// Status::Cancelled — and nothing may leak or race (ASan/TSan jobs).
TEST(DbConcurrencyTest, CancelHammerYieldsAnswerOrCleanCancellation) {
  Database incomplete = MakeIncompleteSynthetic(/*seed=*/93);
  SchemaAnnotation annotation;
  annotation.MarkIncomplete("table_b");
  EngineConfig config = FastDbConfig();
  config.enable_cache = false;  // every execution re-runs model inference

  const std::string sql =
      "SELECT COUNT(*) FROM table_a NATURAL JOIN table_b GROUP BY b;";

  ThreadPool::SetGlobalWidth(4);
  auto db = Db::Open(&incomplete, annotation, DbOptions().WithEngine(config));
  ASSERT_TRUE(db.ok()) << db.status();

  // Pre-train on the main thread so the hammer only exercises inference.
  auto baseline = (*db)->CreateSession().Execute(sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  constexpr int kClients = 4;
  constexpr int kItersPerClient = 8;
  std::atomic<size_t> answered{0};
  std::atomic<size_t> cancelled{0};
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Session session = (*db)->CreateSession();
        for (int i = 0; i < kItersPerClient; ++i) {
          QueryOptions options;
          options.cancel = CancellationToken::Cancellable();
          // Race a cancel against the execution; stagger the delay so some
          // queries die early, some mid-flight, some not at all.
          std::thread canceller([token = options.cancel, c, i] {
            std::this_thread::sleep_for(
                std::chrono::microseconds(50 * ((c + i) % 5)));
            token.RequestCancel();
          });
          auto r = session.Execute(sql, options);
          canceller.join();
          if (r.ok()) {
            EXPECT_EQ(*r, *baseline) << "client " << c << " iteration " << i;
            answered.fetch_add(1);
          } else {
            EXPECT_TRUE(r.status().IsCancelled())
                << "client " << c << " iteration " << i << ": "
                << r.status();
            cancelled.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  ThreadPool::SetGlobalWidth(0);

  EXPECT_EQ(answered.load() + cancelled.load(),
            static_cast<size_t>(kClients * kItersPerClient));
  // The Db counted every hammer query exactly once, one way or the other.
  const Db::Stats stats = (*db)->stats();
  EXPECT_EQ(stats.queries_ok + stats.queries_cancelled,
            static_cast<uint64_t>(kClients * kItersPerClient) + 1 /*baseline*/);
  EXPECT_EQ(stats.queries_deadline_exceeded, 0u);
  EXPECT_EQ(stats.queries_failed, 0u);
}

// ---- Row locality of MADE inference ----------------------------------------
//
// A row's predictive distribution depends only on that row's own codes and
// context: never on which rows share its batch, nor on where the row falls
// in the GEMM's 4-row register tile (src/nn/README.md, inference rule 5).
// CompletePathJoin relies on this when a fan-out hop's representative rows
// reuse the tuple factors predicted for all rows.

/// Deterministic evidence: every column filled with valid codes.
IntMatrix EvidenceCodes(const MadeConfig& config, size_t rows, Rng& rng) {
  IntMatrix codes(rows, config.vocab_sizes.size(), 0);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < config.vocab_sizes.size(); ++a) {
      codes.at(r, a) = static_cast<int32_t>(
          rng.NextUint64(static_cast<uint64_t>(config.vocab_sizes[a])));
    }
  }
  return codes;
}

TEST(MadeRowLocalityTest, PredictDistributionRowBitsIndependentOfBatch) {
  constexpr size_t kBatch = 700;
  const size_t kSubsetSizes[] = {1, 2, 3, 5, 17, 333};
  for (const size_t context_dim : {size_t{0}, size_t{12}}) {
    MadeConfig config;
    // A wide attribute forces multi-shard row blocks (see TrainAndSample).
    config.vocab_sizes = {9, 300, 17, 40, 5};
    config.embed_dim = 6;
    config.hidden_dim = 40;
    config.num_layers = 2;
    config.context_dim = context_dim;
    Rng rng(601 + context_dim);
    MadeModel made(config, rng);
    made.FinalizeForInference();
    const IntMatrix codes = EvidenceCodes(config, kBatch, rng);
    Matrix context(context_dim == 0 ? 0 : kBatch, context_dim);
    for (float& v : context.vec()) v = static_cast<float>(rng.NextGaussian());

    for (const size_t width : {size_t{1}, size_t{4}}) {
      ThreadPool::SetGlobalWidth(width);
      MadeScratch scratch;
      for (size_t attr = 0; attr < made.num_attrs(); ++attr) {
        Matrix full;
        made.PredictDistribution(codes, context, attr, &full, &scratch);
        for (const size_t n : kSubsetSizes) {
          // Distinct rows in shuffled order, so a row's tile slot in the
          // subset generally differs from its slot in the full batch.
          std::vector<size_t> rows(kBatch);
          for (size_t r = 0; r < kBatch; ++r) rows[r] = r;
          rng.Shuffle(rows);
          rows.resize(n);
          const IntMatrix sub_codes = codes.GatherRows(rows);
          Matrix sub_context(context_dim == 0 ? 0 : n, context_dim);
          for (size_t i = 0; i < sub_context.rows(); ++i) {
            std::memcpy(sub_context.row(i), context.row(rows[i]),
                        context_dim * sizeof(float));
          }
          Matrix sub;
          made.PredictDistribution(sub_codes, sub_context, attr, &sub,
                                   &scratch);
          ASSERT_EQ(sub.rows(), n);
          ASSERT_EQ(sub.cols(), full.cols());
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::memcmp(sub.row(i), full.row(rows[i]),
                                  full.cols() * sizeof(float)),
                      0)
                << "context_dim " << context_dim << " width " << width
                << " attr " << attr << " subset " << n << " row "
                << rows[i];
          }
        }
      }
    }
  }
  ThreadPool::SetGlobalWidth(0);
}

}  // namespace
}  // namespace restore
