#include "restore/path_model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <unordered_map>

#include "common/string_util.h"
#include "common/timer.h"
#include "exec/join.h"
#include "nn/adam.h"
#include "restore/snapshot_index.h"
#include "restore/tuple_factor.h"

namespace restore {

namespace {

constexpr const char kTfFillPrefix[] = "__tffill_";
constexpr const char kTfObsPrefix[] = "__tfobs_";

/// Collects all key columns (FK endpoints) of `table`.
std::set<std::string> KeyColumns(const Database& db,
                                 const std::string& table) {
  std::set<std::string> keys;
  for (const auto& fk : db.foreign_keys()) {
    if (fk.child_table == table) keys.insert(fk.child_column);
    if (fk.parent_table == table) keys.insert(fk.parent_column);
  }
  return keys;
}

/// Primary-key column of `table`: the column other tables reference, if any.
Result<std::string> PrimaryKeyColumn(const Database& db,
                                     const std::string& table) {
  for (const auto& fk : db.foreign_keys()) {
    if (fk.parent_table == table) return fk.parent_column;
  }
  return Status::NotFound(
      StrFormat("table '%s' has no referencing foreign key", table.c_str()));
}

/// Builds a TF discretizer with one code per count in [0, tf_cap].
Result<ColumnDiscretizer> MakeTfDiscretizer(int tf_cap) {
  Column tmp("tf", ColumnType::kInt64);
  for (int v = 0; v <= tf_cap; ++v) tmp.AppendInt64(v);
  return ColumnDiscretizer::Fit(tmp, tf_cap + 1);
}

int64_t ClampTf(int64_t v, int tf_cap) {
  return std::max<int64_t>(0, std::min<int64_t>(v, tf_cap));
}

/// Thread-safe log-gamma: std::lgamma writes the process-global `signgam`
/// (POSIX), which is a data race when models train or load concurrently
/// (parallel candidate training) and tabulate their tuple-factor posteriors.
/// All inputs here are >= 1, so the sign output of the reentrant variant is
/// irrelevant.
double LogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// True if the partial join `joined` (qualified "table.column" names)
/// already carries columns of base table `table`.
bool JoinsTable(const Table& joined, const std::string& table) {
  const std::string prefix = table + ".";
  for (size_t c = 0; c < joined.NumColumns(); ++c) {
    if (StartsWith(joined.column(c).name(), prefix)) return true;
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<PathModel>> PathModel::Train(
    const Database& db, const SchemaAnnotation& annotation,
    const std::vector<std::string>& path, const PathModelConfig& config,
    const PathModel* warm_start) {
  if (path.size() < 2) {
    return Status::InvalidArgument("completion path needs >= 2 tables");
  }
  std::unique_ptr<PathModel> model(new PathModel());
  model->path_ = path;
  model->config_ = config;
  model->annotation_ = annotation;
  model->rng_.Seed(config.seed);
  model->scratch_pool_.set_max_idle(config.max_pooled_scratch_arenas);
  RESTORE_RETURN_IF_ERROR(model->BuildLayout(db, annotation));
  if (config.use_ssar) {
    RESTORE_RETURN_IF_ERROR(model->SetupSsar(db));
  }
  RESTORE_RETURN_IF_ERROR(model->BuildTrainingData(db));
  RESTORE_RETURN_IF_ERROR(model->RunTraining(warm_start));
  model->BuildTfPosteriorTables();
  return model;
}

Status PathModel::BuildLayout(const Database& db,
                              const SchemaAnnotation& annotation) {
  (void)annotation;
  const size_t n = path_.size();
  table_attr_begin_.assign(n, 0);
  table_attr_end_.assign(n, 0);
  tf_attr_of_hop_.assign(n > 0 ? n - 1 : 0, -1);
  hop_is_fanout_.assign(n > 0 ? n - 1 : 0, false);
  for (size_t k = 0; k + 1 < n; ++k) {
    RESTORE_ASSIGN_OR_RETURN(bool fanout, db.IsFanOut(path_[k], path_[k + 1]));
    hop_is_fanout_[k] = fanout;
  }

  for (size_t k = 0; k < n; ++k) {
    const std::string& tname = path_[k];
    RESTORE_ASSIGN_OR_RETURN(const Table* table, db.GetTable(tname));
    const std::set<std::string> keys = KeyColumns(db, tname);
    table_attr_begin_[k] = attrs_.size();
    for (const auto& col : table->columns()) {
      if (keys.count(col.name()) > 0) continue;
      if (IsTupleFactorColumn(col.name())) continue;
      if (StartsWith(col.name(), kTfFillPrefix) ||
          StartsWith(col.name(), kTfObsPrefix)) {
        continue;
      }
      PathAttr attr;
      attr.table = tname;
      attr.column = col.name();
      attr.qualified = tname + "." + col.name();
      attr.is_tuple_factor = false;
      RESTORE_ASSIGN_OR_RETURN(attr.disc,
                               ColumnDiscretizer::Fit(col, config_.max_bins));
      attrs_.push_back(std::move(attr));
    }
    table_attr_end_[k] = attrs_.size();
    // Tuple-factor attribute of the hop k -> k+1 (fan-out hops only).
    if (k + 1 < n && hop_is_fanout_[k]) {
      PathAttr attr;
      attr.table = tname;
      attr.column = TupleFactorColumnName(path_[k + 1]);
      attr.qualified = tname + "." + attr.column;
      attr.is_tuple_factor = true;
      RESTORE_ASSIGN_OR_RETURN(attr.disc, MakeTfDiscretizer(config_.tf_cap));
      tf_attr_of_hop_[k] = static_cast<int>(attrs_.size());
      attrs_.push_back(std::move(attr));
    }
  }
  if (attrs_.empty()) {
    return Status::InvalidArgument(
        "completion path has no non-key attributes to model");
  }
  return Status::OK();
}

Status PathModel::SetupSsar(const Database& db) {
  // Find the last fan-out hop: its parent table is the deep-sets root.
  int root_hop = -1;
  for (size_t k = 0; k + 1 < path_.size(); ++k) {
    if (hop_is_fanout_[k]) root_hop = static_cast<int>(k);
  }
  if (root_hop < 0) {
    ssar_enabled_ = false;  // no fan-out evidence available: plain AR
    return Status::OK();
  }
  ssar_root_table_ = path_[static_cast<size_t>(root_hop)];
  RESTORE_ASSIGN_OR_RETURN(ssar_root_key_,
                           PrimaryKeyColumn(db, ssar_root_table_));

  // Child tables: fan-out children of the root. The on-path child comes
  // first (self-evidence towards the table being completed).
  const std::string on_path_child = path_[static_cast<size_t>(root_hop) + 1];
  std::vector<std::string> candidates{on_path_child};
  for (const auto& fk : db.foreign_keys()) {
    if (fk.parent_table == ssar_root_table_ &&
        fk.child_table != on_path_child) {
      candidates.push_back(fk.child_table);
    }
  }

  for (const auto& child : candidates) {
    if (ssar_child_tables_.size() >= 2) break;
    RESTORE_ASSIGN_OR_RETURN(const Table* ctable, db.GetTable(child));
    const std::set<std::string> keys = KeyColumns(db, child);
    RowEncoder encoder;
    for (const auto& col : ctable->columns()) {
      if (keys.count(col.name()) > 0) continue;
      if (IsTupleFactorColumn(col.name())) continue;
      RESTORE_ASSIGN_OR_RETURN(ColumnDiscretizer disc,
                               ColumnDiscretizer::Fit(col, config_.max_bins));
      encoder.Add(col.name(), std::move(disc));
    }
    if (encoder.num_attrs() == 0) continue;  // e.g. pure link tables

    // Encode all available child rows and index them by the root key.
    RESTORE_ASSIGN_OR_RETURN(ForeignKey fk,
                             db.FindForeignKey(child, ssar_root_table_));
    RESTORE_ASSIGN_OR_RETURN(const Column* fk_col,
                             ctable->GetColumn(fk.child_column));
    IntMatrix codes(ctable->NumRows(), encoder.num_attrs());
    for (size_t a = 0; a < encoder.num_attrs(); ++a) {
      RESTORE_ASSIGN_OR_RETURN(const Column* col,
                               ctable->GetColumn(encoder.name(a)));
      for (size_t r = 0; r < ctable->NumRows(); ++r) {
        const int32_t code = encoder.discretizer(a).EncodeCell(*col, r);
        codes.at(r, a) = std::max<int32_t>(0, code);
      }
    }
    std::map<int64_t, std::vector<size_t>> index;
    for (size_t r = 0; r < ctable->NumRows(); ++r) {
      const int64_t key = fk_col->GetInt64(r);
      if (key == kNullInt64) continue;
      index[key].push_back(r);
    }
    // Child primary keys (for leave-one-out exclusion); row index fallback.
    std::vector<int64_t> pks(ctable->NumRows());
    auto pk_name = PrimaryKeyColumn(db, child);
    if (pk_name.ok() && ctable->HasColumn(pk_name.value())) {
      RESTORE_ASSIGN_OR_RETURN(const Column* pk_col,
                               ctable->GetColumn(pk_name.value()));
      for (size_t r = 0; r < ctable->NumRows(); ++r) {
        pks[r] = pk_col->GetInt64(r);
      }
    } else {
      for (size_t r = 0; r < ctable->NumRows(); ++r) {
        pks[r] = static_cast<int64_t>(r);
      }
    }

    ssar_child_tables_.push_back(child);
    ssar_child_encoders_.push_back(std::move(encoder));
    child_codes_.push_back(std::move(codes));
    children_of_key_.push_back(std::move(index));
    child_pks_.push_back(std::move(pks));
  }
  ssar_enabled_ = !ssar_child_tables_.empty();
  return Status::OK();
}

Status PathModel::BuildTrainingData(const Database& db) {
  // Scratch copy where fan-out parents carry __tffill / __tfobs columns.
  Database scratch = db.Clone();
  tf_keep_ratio_.assign(path_.size() > 0 ? path_.size() - 1 : 0, 1.0);
  for (size_t k = 0; k + 1 < path_.size(); ++k) {
    if (!hop_is_fanout_[k]) continue;
    const std::string& parent = path_[k];
    const std::string& child = path_[k + 1];
    RESTORE_ASSIGN_OR_RETURN(std::vector<int64_t> current,
                             CountChildMatches(db, db.FindForeignKey(parent, child).value()));
    RESTORE_ASSIGN_OR_RETURN(Table * ptable, scratch.GetMutableTable(parent));
    const std::string tf_name = TupleFactorColumnName(child);
    Column fill(kTfFillPrefix + child, ColumnType::kInt64);
    Column obs(kTfObsPrefix + child, ColumnType::kInt64);
    const bool has_tf = ptable->HasColumn(tf_name);
    const Column* tf_col = nullptr;
    if (has_tf) {
      RESTORE_ASSIGN_OR_RETURN(tf_col, ptable->GetColumn(tf_name));
    }
    double observed_tf_sum = 0.0;
    double observed_have_sum = 0.0;
    for (size_t r = 0; r < ptable->NumRows(); ++r) {
      if (has_tf && !tf_col->IsNull(r)) {
        fill.AppendInt64(ClampTf(tf_col->GetInt64(r), config_.tf_cap));
        obs.AppendInt64(1);
        observed_tf_sum += static_cast<double>(tf_col->GetInt64(r));
        observed_have_sum += static_cast<double>(current[r]);
      } else if (!has_tf) {
        // No TF annotation at all: treat the available count as the truth
        // (complete-relationship default).
        fill.AppendInt64(ClampTf(current[r], config_.tf_cap));
        obs.AppendInt64(1);
      } else {
        fill.AppendInt64(ClampTf(current[r], config_.tf_cap));
        obs.AppendInt64(0);
      }
    }
    RESTORE_RETURN_IF_ERROR(ptable->AddColumn(std::move(fill)));
    RESTORE_RETURN_IF_ERROR(ptable->AddColumn(std::move(obs)));
    if (observed_tf_sum > 0.0) {
      tf_keep_ratio_[k] =
          std::clamp(observed_have_sum / observed_tf_sum, 0.01, 1.0);
    }
  }

  RESTORE_ASSIGN_OR_RETURN(Table joined, NaturalJoinTables(scratch, path_));
  if (joined.NumRows() == 0) {
    return Status::FailedPrecondition(
        "no training data: the join of the completion path is empty");
  }

  // Subsample and shuffle rows.
  std::vector<size_t> rows(joined.NumRows());
  for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  rng_.Shuffle(rows);
  if (rows.size() > config_.max_train_rows) {
    rows.resize(config_.max_train_rows);
  }

  // Resolve the source column of every attribute once. For tuple-factor
  // attributes, additionally compute the join multiplicity of each parent
  // row: the training join repeats a parent once per available child, which
  // would size-bias the learned tuple-factor distribution unless each
  // parent's loss contribution is down-weighted by 1/multiplicity.
  std::vector<const Column*> attr_cols(attrs_.size(), nullptr);
  std::vector<const Column*> obs_cols(attrs_.size(), nullptr);
  std::vector<const Column*> tf_key_cols(attrs_.size(), nullptr);
  std::vector<std::unordered_map<int64_t, float>> tf_inv_mult(attrs_.size());
  for (size_t a = 0; a < attrs_.size(); ++a) {
    if (attrs_[a].is_tuple_factor) {
      const std::string child =
          attrs_[a].column.substr(std::string("__tf_").size());
      RESTORE_ASSIGN_OR_RETURN(
          size_t ci,
          ResolveColumn(joined, attrs_[a].table + "." + kTfFillPrefix + child));
      attr_cols[a] = &joined.column(ci);
      RESTORE_ASSIGN_OR_RETURN(
          size_t oi,
          ResolveColumn(joined, attrs_[a].table + "." + kTfObsPrefix + child));
      obs_cols[a] = &joined.column(oi);
      RESTORE_ASSIGN_OR_RETURN(ForeignKey fk,
                               db.FindForeignKey(attrs_[a].table, child));
      RESTORE_ASSIGN_OR_RETURN(
          size_t ki,
          ResolveColumn(joined, attrs_[a].table + "." + fk.parent_column));
      tf_key_cols[a] = &joined.column(ki);
      std::unordered_map<int64_t, float> counts;
      for (size_t r = 0; r < joined.NumRows(); ++r) {
        counts[tf_key_cols[a]->GetInt64(r)] += 1.0f;
      }
      for (auto& [key, count] : counts) {
        (void)key;
        count = 1.0f / count;
      }
      tf_inv_mult[a] = std::move(counts);
    } else {
      RESTORE_ASSIGN_OR_RETURN(size_t ci,
                               ResolveColumn(joined, attrs_[a].qualified));
      attr_cols[a] = &joined.column(ci);
    }
  }

  IntMatrix codes(rows.size(), attrs_.size());
  Matrix weights(rows.size(), attrs_.size(), 1.0f);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t r = rows[i];
    for (size_t a = 0; a < attrs_.size(); ++a) {
      const int32_t code = attrs_[a].disc.EncodeCell(*attr_cols[a], r);
      if (code < 0) {
        codes.at(i, a) = 0;
        weights.at(i, a) = 0.0f;
      } else {
        codes.at(i, a) = code;
        if (obs_cols[a] != nullptr && obs_cols[a]->GetInt64(r) == 0) {
          weights.at(i, a) = 0.0f;
        } else if (tf_key_cols[a] != nullptr) {
          weights.at(i, a) =
              tf_inv_mult[a].at(tf_key_cols[a]->GetInt64(r));
        }
      }
    }
  }

  // SSAR bookkeeping: evidence keys + leave-one-out exclusion pks.
  std::vector<int64_t> evidence_keys;
  std::vector<int64_t> exclude_pks;
  if (ssar_enabled_) {
    RESTORE_ASSIGN_OR_RETURN(
        size_t ki,
        ResolveColumn(joined, ssar_root_table_ + "." + ssar_root_key_));
    const Column& key_col = joined.column(ki);
    evidence_keys.resize(rows.size());
    exclude_pks.assign(rows.size(), kNullInt64);
    for (size_t i = 0; i < rows.size(); ++i) {
      evidence_keys[i] = key_col.GetInt64(rows[i]);
    }
    // Self-evidence: exclude the row being predicted from its own set.
    const std::string& self_child = ssar_child_tables_[0];
    auto self_pk_name = PrimaryKeyColumn(db, self_child);
    if (self_pk_name.ok()) {
      auto pk_idx =
          ResolveColumn(joined, self_child + "." + self_pk_name.value());
      if (pk_idx.ok()) {
        const Column& pk_col = joined.column(pk_idx.value());
        for (size_t i = 0; i < rows.size(); ++i) {
          exclude_pks[i] = pk_col.GetInt64(rows[i]);
        }
      }
    }
  }

  // Train/test split.
  const size_t test_n = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(rows.size()) *
                             config_.test_fraction));
  const size_t train_n = rows.size() > test_n ? rows.size() - test_n : 1;
  std::vector<size_t> train_idx;
  std::vector<size_t> test_idx;
  for (size_t i = 0; i < rows.size(); ++i) {
    (i < train_n ? train_idx : test_idx).push_back(i);
  }
  auto take = [&](const std::vector<size_t>& idx, IntMatrix* c, Matrix* w,
                  std::vector<int64_t>* keys, std::vector<int64_t>* excl) {
    *c = codes.GatherRows(idx);
    w->Resize(idx.size(), attrs_.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      for (size_t a = 0; a < attrs_.size(); ++a) {
        w->at(i, a) = weights.at(idx[i], a);
      }
    }
    if (ssar_enabled_) {
      keys->resize(idx.size());
      excl->resize(idx.size());
      for (size_t i = 0; i < idx.size(); ++i) {
        (*keys)[i] = evidence_keys[idx[i]];
        (*excl)[i] = exclude_pks[idx[i]];
      }
    }
  };
  take(train_idx, &train_codes_, &train_weights_, &train_evidence_keys_,
       &train_exclude_pk_);
  take(test_idx, &test_codes_, &test_weights_, &test_evidence_keys_,
       &test_exclude_pk_);

  // Marginal code distributions of the training data (P_incomplete of
  // Section 6), with add-one smoothing.
  train_marginals_.assign(attrs_.size(), {});
  for (size_t a = 0; a < attrs_.size(); ++a) {
    std::vector<double> counts(attrs_[a].disc.vocab_size(), 1.0);
    double total = static_cast<double>(counts.size());
    for (size_t i = 0; i < train_codes_.rows(); ++i) {
      if (train_weights_.at(i, a) > 0.0f) {
        counts[static_cast<size_t>(train_codes_.at(i, a))] += 1.0;
        total += 1.0;
      }
    }
    for (double& c : counts) c /= total;
    train_marginals_[a] = std::move(counts);
  }
  return Status::OK();
}

Result<std::vector<ChildBatch>> PathModel::BuildChildBatches(
    const std::vector<int64_t>& evidence_keys,
    const std::vector<int64_t>* exclude_child_pk) const {
  std::vector<ChildBatch> out(ssar_child_tables_.size());
  for (size_t t = 0; t < ssar_child_tables_.size(); ++t) {
    ChildBatch& cb = out[t];
    cb.offsets.assign(evidence_keys.size() + 1, 0);
    std::vector<size_t> picked;
    for (size_t i = 0; i < evidence_keys.size(); ++i) {
      auto it = children_of_key_[t].find(evidence_keys[i]);
      size_t count = 0;
      if (it != children_of_key_[t].end()) {
        for (size_t child_row : it->second) {
          if (count >= config_.max_children) break;
          if (t == 0 && exclude_child_pk != nullptr &&
              (*exclude_child_pk)[i] != kNullInt64 &&
              child_pks_[t][child_row] == (*exclude_child_pk)[i]) {
            continue;
          }
          picked.push_back(child_row);
          ++count;
        }
      }
      cb.offsets[i + 1] = cb.offsets[i] + count;
    }
    cb.codes = child_codes_[t].GatherRows(picked);
    if (picked.empty()) {
      // Keep the attr width correct for the encoder even when empty.
      cb.codes = IntMatrix(0, child_codes_[t].cols());
    }
  }
  return out;
}

Status PathModel::RunTraining(const PathModel* warm_start) {
  Timer timer;
  MadeConfig made_config;
  made_config.vocab_sizes.reserve(attrs_.size());
  for (const auto& a : attrs_) {
    made_config.vocab_sizes.push_back(a.disc.vocab_size());
  }
  made_config.embed_dim = config_.embed_dim;
  made_config.hidden_dim = config_.hidden_dim;
  made_config.num_layers = config_.num_layers;
  made_config.context_dim = ssar_enabled_ ? config_.context_dim : 0;
  made_ = std::make_unique<MadeModel>(made_config, rng_);

  if (ssar_enabled_) {
    std::vector<DeepSetsEncoder::TableSpec> specs;
    for (const auto& enc : ssar_child_encoders_) {
      specs.push_back({enc.VocabSizes()});
    }
    deep_sets_ = std::make_unique<DeepSetsEncoder>(
        specs, config_.embed_dim, config_.phi_dim, config_.context_dim, rng_);
  }

  std::vector<Param*> params;
  made_->CollectParams(&params);
  if (deep_sets_ != nullptr) deep_sets_->CollectParams(&params);
  num_parameters_ = 0;
  for (Param* p : params) num_parameters_ += p->value.size();

  // Warm start (fine-tune refresh): seed the freshly initialized networks
  // with the previous generation's learned parameters. Only valid when the
  // architectures line up exactly — same param count and per-param shapes —
  // which holds for appends that introduce no new categorical values. Any
  // mismatch means the layout drifted; fall back to the cold init already in
  // place rather than copying garbage.
  if (warm_start != nullptr && warm_start->made_ != nullptr) {
    std::vector<Param*> old_params;
    warm_start->made_->CollectParams(&old_params);
    if (warm_start->deep_sets_ != nullptr) {
      warm_start->deep_sets_->CollectParams(&old_params);
    }
    bool shapes_match = old_params.size() == params.size();
    for (size_t i = 0; shapes_match && i < params.size(); ++i) {
      shapes_match = old_params[i]->value.rows() == params[i]->value.rows() &&
                     old_params[i]->value.cols() == params[i]->value.cols();
    }
    if (shapes_match) {
      for (size_t i = 0; i < params.size(); ++i) {
        params[i]->value = old_params[i]->value;
      }
    }
  }

  AdamOptions opts;
  opts.learning_rate = config_.learning_rate;
  AdamOptimizer adam(params, opts);

  const size_t n = train_codes_.rows();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;

  // Ensure a minimum number of optimizer steps on small training joins.
  const size_t steps_per_epoch =
      (n + config_.batch_size - 1) / config_.batch_size;
  const size_t epochs = std::max(
      config_.epochs,
      config_.epochs == 0
          ? 0
          : (config_.min_train_steps + steps_per_epoch - 1) /
                std::max<size_t>(1, steps_per_epoch));

  const Matrix empty_context;
  // Minibatch scratch buffers live OUTSIDE the training loops: shapes repeat
  // (full batches all match, plus one short tail per epoch), so the
  // shape-preserving Resize makes every steady-state step allocation-free.
  std::vector<size_t> batch;
  IntMatrix codes;
  Matrix weights;
  Matrix context;
  Matrix logits;
  Matrix dlogits;
  Matrix dcontext;
  std::vector<int64_t> keys;
  std::vector<int64_t> excl;
  std::vector<ChildBatch> children;
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    rng_.Shuffle(order);
    for (size_t begin = 0; begin < n; begin += config_.batch_size) {
      const size_t end = std::min(n, begin + config_.batch_size);
      batch.assign(order.begin() + begin, order.begin() + end);
      train_codes_.GatherRowsInto(batch, &codes);
      weights.Resize(batch.size(), attrs_.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        for (size_t a = 0; a < attrs_.size(); ++a) {
          weights.at(i, a) = train_weights_.at(batch[i], a);
        }
      }
      if (ssar_enabled_) {
        keys.resize(batch.size());
        excl.resize(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          keys[i] = train_evidence_keys_[batch[i]];
          excl[i] = train_exclude_pk_[batch[i]];
        }
        RESTORE_ASSIGN_OR_RETURN(children, BuildChildBatches(keys, &excl));
        deep_sets_->Forward(children, &context);
      }
      made_->Forward(codes, ssar_enabled_ ? context : empty_context, &logits);
      made_->NllLossWeighted(logits, codes, 0, weights, &dlogits);
      made_->Backward(dlogits, ssar_enabled_ ? &dcontext : nullptr);
      if (ssar_enabled_) deep_sets_->Backward(dcontext);
      adam.Step();
    }
  }

  // Held-out evaluation.
  {
    Matrix context;
    if (ssar_enabled_) {
      RESTORE_ASSIGN_OR_RETURN(
          std::vector<ChildBatch> children,
          BuildChildBatches(test_evidence_keys_, &test_exclude_pk_));
      deep_sets_->Forward(children, &context);
    }
    Matrix logits;
    made_->Forward(test_codes_, ssar_enabled_ ? context : empty_context,
                   &logits);
    test_loss_ =
        made_->NllLossWeighted(logits, test_codes_, 0, test_weights_, nullptr);
    // Target loss: final table's attributes plus the final hop's TF.
    size_t first_target = table_attr_begin_[path_.size() - 1];
    const int last_tf = tf_attr_of_hop_[path_.size() - 2];
    if (last_tf >= 0) {
      first_target = std::min(first_target, static_cast<size_t>(last_tf));
    }
    target_test_loss_ = made_->NllLossWeighted(logits, test_codes_,
                                               first_target, test_weights_,
                                               nullptr);
  }
  // Parameters are final: freeze the masked-weight caches so the reentrant
  // (const, scratch-arena) inference entry points can run without ever
  // touching model state again.
  made_->FinalizeForInference();
  train_seconds_ = timer.ElapsedSeconds();
  return Status::OK();
}

Result<IntMatrix> PathModel::EncodeEvidencePrefix(
    const Database& db, const Table& joined, size_t upto_table,
    const std::vector<size_t>& rows, const SnapshotIndex* index) const {
  std::optional<SnapshotIndex> local;
  if (index == nullptr) index = &local.emplace(db);
  IntMatrix codes(rows.size(), attrs_.size());

  const size_t attr_end = table_attr_end_[upto_table];
  for (size_t a = 0; a < attrs_.size(); ++a) {
    const PathAttr& attr = attrs_[a];
    // Include table blocks up to `upto_table` and TF attrs of hops strictly
    // before it (TF of hop `upto_table` is sampled, not encoded).
    bool in_prefix = false;
    if (!attr.is_tuple_factor) {
      in_prefix = a < attr_end;
    } else {
      for (size_t k = 0; k < upto_table; ++k) {
        if (tf_attr_of_hop_[k] == static_cast<int>(a)) in_prefix = true;
      }
    }
    if (!in_prefix) continue;

    auto ci = ResolveColumn(joined, attr.qualified);
    if (!attr.is_tuple_factor) {
      if (!ci.ok()) return ci.status();
      const Column& col = joined.column(ci.value());
      for (size_t i = 0; i < rows.size(); ++i) {
        const int32_t code = attr.disc.EncodeCell(col, rows[i]);
        codes.at(i, a) = std::max<int32_t>(0, code);
      }
      continue;
    }
    // Tuple-factor attribute inside the prefix: observed value if present,
    // else the currently available child count.
    size_t hop = 0;
    for (size_t k = 0; k < upto_table; ++k) {
      if (tf_attr_of_hop_[k] == static_cast<int>(a)) hop = k;
    }
    const std::string& parent = path_[hop];
    const std::string& child = path_[hop + 1];
    RESTORE_ASSIGN_OR_RETURN(ForeignKey fk, db.FindForeignKey(parent, child));
    RESTORE_ASSIGN_OR_RETURN(const KeyIndex* parent_keys,
                             index->Keys(parent, fk.parent_column));
    RESTORE_ASSIGN_OR_RETURN(const KeyIndex* child_keys,
                             index->Keys(child, fk.child_column));
    RESTORE_ASSIGN_OR_RETURN(
        size_t key_ci, ResolveColumn(joined, parent + "." + fk.parent_column));
    const Column& key_col = joined.column(key_ci);
    const bool has_obs = ci.ok();
    for (size_t i = 0; i < rows.size(); ++i) {
      int64_t tf = kNullInt64;
      if (has_obs && !joined.column(ci.value()).IsNull(rows[i])) {
        tf = joined.column(ci.value()).GetInt64(rows[i]);
      } else {
        // Only keys of the parent table count: a parent synthesized with a
        // known but absent key reads 0, not its stray children.
        const int64_t key = key_col.GetInt64(rows[i]);
        tf = parent_keys->Contains(key)
                 ? static_cast<int64_t>(child_keys->Count(key))
                 : 0;
      }
      codes.at(i, a) = static_cast<int32_t>(ClampTf(tf, config_.tf_cap));
    }
  }
  return codes;
}

Status PathModel::ComputeContext(const Table& joined,
                                 const std::vector<size_t>& rows,
                                 InferenceScratch* scratch) const {
  if (!ssar_enabled_) {
    scratch->context.Resize(0, 0);
    return Status::OK();
  }
  // The deep-sets root is the parent of the path's LAST fan-out hop, so the
  // partial join of an earlier hop may not contain it yet. Such rows get the
  // empty-child-set context (null keys match no children): the context
  // training gives a root without children.
  std::vector<int64_t> keys(rows.size(), kNullInt64);
  auto ki = ResolveColumn(joined, ssar_root_table_ + "." + ssar_root_key_);
  if (ki.ok()) {
    const Column& key_col = joined.column(ki.value());
    for (size_t i = 0; i < rows.size(); ++i) {
      keys[i] = key_col.GetInt64(rows[i]);
    }
  } else if (JoinsTable(joined, ssar_root_table_)) {
    return ki.status();
  }
  RESTORE_ASSIGN_OR_RETURN(std::vector<ChildBatch> children,
                           BuildChildBatches(keys, nullptr));
  const DeepSetsEncoder* encoder = deep_sets_.get();
  encoder->Forward(children, &scratch->context, &scratch->deep_sets);
  return Status::OK();
}

void PathModel::BuildTfPosteriorTables() {
  tf_posterior_.assign(tf_attr_of_hop_.size(), {});
  for (size_t hop = 0; hop < tf_attr_of_hop_.size(); ++hop) {
    const int tf_attr = tf_attr_of_hop_[hop];
    if (tf_attr < 0) continue;
    const ColumnDiscretizer& disc = attrs_[static_cast<size_t>(tf_attr)].disc;
    TfPosteriorTable& table = tf_posterior_[hop];
    const size_t vocab = static_cast<size_t>(disc.vocab_size());
    table.code_mean.resize(vocab);
    for (size_t k = 0; k < vocab; ++k) {
      table.code_mean[k] = disc.CodeMean(static_cast<int32_t>(k));
    }
    const double rho = tf_keep_ratio_[hop];
    if (!(rho < 1.0)) continue;
    const size_t counts = static_cast<size_t>(config_.tf_cap) + 1;
    table.likelihood.assign(counts * vocab, 0.0);
    for (size_t hc = 0; hc < counts; ++hc) {
      const double h = static_cast<double>(hc);
      for (size_t k = 0; k < vocab; ++k) {
        const double t = table.code_mean[k];
        if (t < h) continue;
        const double log_binom =
            LogGamma(t + 1.0) - LogGamma(h + 1.0) - LogGamma(t - h + 1.0);
        const double log_lik =
            log_binom + h * std::log(rho) + (t - h) * std::log1p(-rho);
        table.likelihood[hc * vocab + k] = std::exp(log_lik);
      }
    }
  }
}

Result<std::vector<int64_t>> PathModel::SampleTupleFactors(
    const Database& db, const Table& joined, IntMatrix* codes,
    const std::vector<size_t>& rows, size_t hop, Rng& rng,
    const std::vector<int64_t>* available_counts,
    const ExecContext* ctx) const {
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  if (hop >= tf_attr_of_hop_.size() || tf_attr_of_hop_[hop] < 0) {
    return Status::InvalidArgument("hop is not a fan-out hop");
  }
  if (codes->rows() != rows.size() || codes->cols() != attrs_.size()) {
    return Status::InvalidArgument(
        StrFormat("tuple-factor codes are %zux%zu, expected %zux%zu",
                  codes->rows(), codes->cols(), rows.size(), attrs_.size()));
  }
  if (available_counts != nullptr && available_counts->size() != rows.size()) {
    return Status::InvalidArgument(
        StrFormat("%zu available counts for %zu evidence rows",
                  available_counts->size(), rows.size()));
  }
  const size_t tf_attr = static_cast<size_t>(tf_attr_of_hop_[hop]);
  const PathAttr& attr = attrs_[tf_attr];
  // Observed TFs take precedence; only unobserved rows are predicted.
  std::vector<int64_t> out(rows.size(), kNullInt64);
  auto obs_ci = ResolveColumn(joined, attr.qualified);
  std::vector<size_t> unobserved;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (obs_ci.ok() && !joined.column(obs_ci.value()).IsNull(rows[i])) {
      out[i] = ClampTf(joined.column(obs_ci.value()).GetInt64(rows[i]),
                       config_.tf_cap);
      codes->at(i, tf_attr) = static_cast<int32_t>(out[i]);
    } else {
      unobserved.push_back(i);
    }
  }
  if (!unobserved.empty()) {
    InferenceScratchPool::Lease scratch = scratch_pool_.Acquire();
    if (ctx != nullptr && ctx->stats() != nullptr) {
      ++ctx->stats()->arenas_leased;
    }
    RESTORE_RETURN_IF_ERROR(ComputeContext(joined, rows, scratch.get()));
    RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
    // Predict the CONDITIONAL EXPECTATION of the tuple factor rather than a
    // sample: counts derived from independent samples would systematically
    // overshoot E[max(0, TF - available)] (Jensen), inflating synthesis.
    Matrix& probs = scratch->probs;
    made_->PredictDistribution(*codes, scratch->context, tf_attr, &probs,
                               &scratch->made);
    const TfPosteriorTable& table = tf_posterior_[hop];
    const std::vector<double>& code_mean = table.code_mean;
    const size_t vocab = code_mean.size();
    for (size_t i : unobserved) {
      const float* p = probs.row(i);
      double expected = 0.0;
      if (available_counts != nullptr && !table.likelihood.empty()) {
        // Binomial missingness posterior over the model's distribution.
        const int64_t hc = std::clamp<int64_t>((*available_counts)[i], 0,
                                               config_.tf_cap);
        const double h = static_cast<double>(hc);
        const double* lik =
            table.likelihood.data() + static_cast<size_t>(hc) * vocab;
        double norm = 0.0;
        double weighted = 0.0;
        for (size_t k = 0; k < vocab; ++k) {
          const double t = code_mean[k];
          if (t < h) continue;
          const double w = static_cast<double>(p[k]) * lik[k];
          norm += w;
          weighted += w * t;
        }
        if (norm > 1e-30) expected = weighted / norm;
      }
      if (expected == 0.0) {
        for (size_t k = 0; k < vocab; ++k) {
          expected += static_cast<double>(p[k]) * code_mean[k];
        }
        if (available_counts != nullptr) {
          expected = std::max(
              expected, static_cast<double>((*available_counts)[i]));
        }
      }
      const int64_t tf = ClampTf(std::llround(expected), config_.tf_cap);
      out[i] = tf;
      codes->at(i, tf_attr) = attr.disc.EncodeNumeric(static_cast<double>(tf));
    }
  }
  (void)db;
  (void)rng;
  return out;
}

Result<std::vector<Column>> PathModel::SynthesizeHop(
    const Database& db, const Table& joined, IntMatrix* codes,
    const std::vector<size_t>& rows, size_t hop, Rng& rng, int record_attr,
    Matrix* recorded, const ExecContext* ctx) const {
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  const size_t target_idx = hop + 1;
  const size_t first = table_attr_begin_[target_idx];
  const size_t end = table_attr_end_[target_idx];
  InferenceScratchPool::Lease scratch = scratch_pool_.Acquire();
  if (ctx != nullptr && ctx->stats() != nullptr) {
    ++ctx->stats()->arenas_leased;
  }
  RESTORE_RETURN_IF_ERROR(ComputeContext(joined, rows, scratch.get()));
  // The cooperative hook fires between per-attribute sampling batches; it
  // never touches the rng, so an uncancelled run stays bit-identical.
  std::function<bool()> should_stop;
  if (ctx != nullptr) {
    should_stop = [ctx] { return !ctx->Check().ok(); };
  }
  made_->SampleRange(codes, scratch->context, first, end, rng, record_attr,
                     recorded, &scratch->made, should_stop);
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));

  RESTORE_ASSIGN_OR_RETURN(const Table* target,
                           db.GetTable(path_[target_idx]));
  std::vector<Column> out;
  for (size_t a = first; a < end; ++a) {
    RESTORE_ASSIGN_OR_RETURN(const Column* base,
                             target->GetColumn(attrs_[a].column));
    Column col = base->CloneEmpty();
    col.Reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      attrs_[a].disc.DecodeInto(codes->at(i, a), &col, rng);
    }
    out.push_back(std::move(col));
  }
  return out;
}

Result<Matrix> PathModel::PredictAttrDistribution(
    const Database& db, const Table& joined, const IntMatrix& codes,
    const std::vector<size_t>& rows, size_t attr,
    const ExecContext* ctx) const {
  (void)db;
  RESTORE_RETURN_IF_ERROR(ExecContext::Check(ctx));
  InferenceScratchPool::Lease scratch = scratch_pool_.Acquire();
  if (ctx != nullptr && ctx->stats() != nullptr) {
    ++ctx->stats()->arenas_leased;
  }
  RESTORE_RETURN_IF_ERROR(ComputeContext(joined, rows, scratch.get()));
  Matrix probs;
  made_->PredictDistribution(codes, scratch->context, attr, &probs,
                             &scratch->made);
  return probs;
}

// ---- Persistence -----------------------------------------------------------

namespace {

void SaveSizeVec(BinaryWriter* w, const std::vector<size_t>& v) {
  w->U64(v.size());
  for (size_t x : v) w->U64(x);
}

std::vector<size_t> LoadSizeVec(BinaryReader* r) {
  const uint64_t n = r->U64();
  std::vector<size_t> v;
  if (n > r->remaining() / sizeof(uint64_t)) return v;
  v.reserve(n);
  for (uint64_t i = 0; i < n && r->ok(); ++i) {
    v.push_back(static_cast<size_t>(r->U64()));
  }
  return v;
}

void SaveParams(BinaryWriter* w, const std::vector<Param*>& params) {
  w->U64(params.size());
  for (const Param* p : params) {
    w->U64(p->value.rows());
    w->U64(p->value.cols());
    w->VecF32(p->value.vec());
  }
}

Status LoadParams(BinaryReader* r, const std::vector<Param*>& params,
                  const char* what) {
  const uint64_t count = r->U64();
  if (!r->ok() || count != params.size()) {
    return Status::InvalidArgument(
        StrFormat("%s: saved model has %llu parameter tensors, expected %zu",
                  what, static_cast<unsigned long long>(count),
                  params.size()));
  }
  for (Param* p : params) {
    const uint64_t rows = r->U64();
    const uint64_t cols = r->U64();
    std::vector<float> values = r->VecF32();
    if (!r->ok()) return r->status();
    if (rows != p->value.rows() || cols != p->value.cols() ||
        values.size() != p->value.size()) {
      return Status::InvalidArgument(StrFormat(
          "%s: parameter shape mismatch (saved %llux%llu, model %zux%zu) — "
          "the model file does not match this database/config",
          what, static_cast<unsigned long long>(rows),
          static_cast<unsigned long long>(cols), p->value.rows(),
          p->value.cols()));
    }
    p->value.vec() = std::move(values);
    p->ZeroGrad();
  }
  return Status::OK();
}

}  // namespace

void PathModel::PerturbParametersForTest(float stddev, uint64_t seed) {
  std::vector<Param*> params;
  made_->CollectParams(&params);
  if (deep_sets_ != nullptr) deep_sets_->CollectParams(&params);
  Rng rng(seed);
  for (Param* p : params) {
    for (float& v : p->value.vec()) {
      v += static_cast<float>(rng.NextGaussian(0.0, stddev));
    }
  }
  // The noisy parameters must reach the reentrant inference paths, which
  // read the frozen masked-weight caches, not the raw parameters.
  made_->FinalizeForInference();
}

void PathModel::Save(BinaryWriter* w) const {
  w->VecStr(path_);

  // PathModelConfig (every field, fixed order).
  w->I32(config_.max_bins);
  w->I32(config_.tf_cap);
  w->U64(config_.embed_dim);
  w->U64(config_.hidden_dim);
  w->U64(config_.num_layers);
  w->Bool(config_.use_ssar);
  w->U64(config_.phi_dim);
  w->U64(config_.context_dim);
  w->U64(config_.max_children);
  w->U64(config_.epochs);
  w->U64(config_.batch_size);
  w->F32(config_.learning_rate);
  w->U64(config_.min_train_steps);
  w->F64(config_.test_fraction);
  w->U64(config_.max_train_rows);
  w->U64(config_.seed);

  // Attribute layout + discretizer bins.
  w->U64(attrs_.size());
  for (const auto& attr : attrs_) {
    w->Str(attr.table);
    w->Str(attr.column);
    w->Str(attr.qualified);
    w->Bool(attr.is_tuple_factor);
    attr.disc.Save(w);
  }
  SaveSizeVec(w, table_attr_begin_);
  SaveSizeVec(w, table_attr_end_);
  w->VecI32(tf_attr_of_hop_);
  w->U64(hop_is_fanout_.size());
  for (bool b : hop_is_fanout_) w->Bool(b);
  w->VecF64(tf_keep_ratio_);

  w->U64(train_marginals_.size());
  for (const auto& m : train_marginals_) w->VecF64(m);

  w->F64(test_loss_);
  w->F64(target_test_loss_);
  w->F64(train_seconds_);
  w->U64(num_parameters_);

  // SSAR wiring fingerprint (the evidence indexes themselves are rebuilt
  // from the database at load; this is for validation).
  w->Bool(ssar_enabled_);
  if (ssar_enabled_) {
    w->VecStr(ssar_child_tables_);
    w->U64(ssar_child_encoders_.size());
    for (const auto& enc : ssar_child_encoders_) {
      std::vector<std::string> names;
      for (size_t i = 0; i < enc.num_attrs(); ++i) names.push_back(enc.name(i));
      w->VecStr(names);
      w->VecI32(enc.VocabSizes());
    }
  }

  // Learned parameters.
  std::vector<Param*> made_params;
  made_->CollectParams(&made_params);
  SaveParams(w, made_params);
  if (ssar_enabled_) {
    std::vector<Param*> ds_params;
    deep_sets_->CollectParams(&ds_params);
    SaveParams(w, ds_params);
  }
}

Result<std::unique_ptr<PathModel>> PathModel::Load(
    const Database& db, const SchemaAnnotation& annotation, BinaryReader* r) {
  std::unique_ptr<PathModel> model(new PathModel());
  model->annotation_ = annotation;
  model->path_ = r->VecStr();

  PathModelConfig& cfg = model->config_;
  cfg.max_bins = r->I32();
  cfg.tf_cap = r->I32();
  cfg.embed_dim = static_cast<size_t>(r->U64());
  cfg.hidden_dim = static_cast<size_t>(r->U64());
  cfg.num_layers = static_cast<size_t>(r->U64());
  cfg.use_ssar = r->Bool();
  cfg.phi_dim = static_cast<size_t>(r->U64());
  cfg.context_dim = static_cast<size_t>(r->U64());
  cfg.max_children = static_cast<size_t>(r->U64());
  cfg.epochs = static_cast<size_t>(r->U64());
  cfg.batch_size = static_cast<size_t>(r->U64());
  cfg.learning_rate = r->F32();
  cfg.min_train_steps = static_cast<size_t>(r->U64());
  cfg.test_fraction = r->F64();
  cfg.max_train_rows = static_cast<size_t>(r->U64());
  cfg.seed = r->U64();
  model->rng_.Seed(cfg.seed);

  const uint64_t num_attrs = r->U64();
  RESTORE_RETURN_IF_ERROR(r->status());
  for (uint64_t a = 0; a < num_attrs && r->ok(); ++a) {
    PathAttr attr;
    attr.table = r->Str();
    attr.column = r->Str();
    attr.qualified = r->Str();
    attr.is_tuple_factor = r->Bool();
    RESTORE_ASSIGN_OR_RETURN(attr.disc, ColumnDiscretizer::Load(r));
    model->attrs_.push_back(std::move(attr));
  }
  model->table_attr_begin_ = LoadSizeVec(r);
  model->table_attr_end_ = LoadSizeVec(r);
  model->tf_attr_of_hop_ = r->VecI32();
  const uint64_t num_hops = r->U64();
  RESTORE_RETURN_IF_ERROR(r->status());
  if (num_hops > r->remaining()) {
    return Status::InvalidArgument("truncated hop flags in model file");
  }
  for (uint64_t k = 0; k < num_hops; ++k) {
    model->hop_is_fanout_.push_back(r->Bool());
  }
  model->tf_keep_ratio_ = r->VecF64();

  const uint64_t num_marginals = r->U64();
  RESTORE_RETURN_IF_ERROR(r->status());
  for (uint64_t a = 0; a < num_marginals && r->ok(); ++a) {
    model->train_marginals_.push_back(r->VecF64());
  }

  model->test_loss_ = r->F64();
  model->target_test_loss_ = r->F64();
  r->F64();  // train_seconds of the original run; a loaded model reports 0
  model->train_seconds_ = 0.0;
  model->num_parameters_ = static_cast<size_t>(r->U64());
  const bool saved_ssar = r->Bool();
  std::vector<std::string> saved_child_tables;
  std::vector<std::vector<std::string>> saved_encoder_names;
  std::vector<std::vector<int32_t>> saved_vocab_sizes;
  if (saved_ssar) {
    saved_child_tables = r->VecStr();
    const uint64_t num_encoders = r->U64();
    RESTORE_RETURN_IF_ERROR(r->status());
    for (uint64_t t = 0; t < num_encoders && r->ok(); ++t) {
      saved_encoder_names.push_back(r->VecStr());
      saved_vocab_sizes.push_back(r->VecI32());
    }
  }
  RESTORE_RETURN_IF_ERROR(r->status());

  // Structural sanity before reconstructing the networks.
  const size_t n = model->path_.size();
  if (n < 2 || model->attrs_.empty() || model->table_attr_begin_.size() != n ||
      model->table_attr_end_.size() != n ||
      model->tf_attr_of_hop_.size() != n - 1 ||
      model->hop_is_fanout_.size() != n - 1 ||
      model->tf_keep_ratio_.size() != n - 1 ||
      model->train_marginals_.size() != model->attrs_.size()) {
    return Status::InvalidArgument("inconsistent model layout in model file");
  }
  // The tuple-factor posterior table is sized (tf_cap + 1) x vocab and
  // indexed by counts clamped to [0, tf_cap], so every TF attribute must
  // carry the one-code-per-count discretizer MakeTfDiscretizer builds.
  if (cfg.tf_cap < 0) {
    return Status::InvalidArgument("negative tf_cap in model file");
  }
  for (int tf_attr : model->tf_attr_of_hop_) {
    if (tf_attr >= 0 && (static_cast<size_t>(tf_attr) >= model->attrs_.size() ||
                         !model->attrs_[static_cast<size_t>(tf_attr)]
                              .is_tuple_factor)) {
      return Status::InvalidArgument(
          "model file hop points at no tuple-factor attribute");
    }
  }
  for (const PathAttr& attr : model->attrs_) {
    if (attr.is_tuple_factor &&
        attr.disc.vocab_size() != static_cast<int64_t>(cfg.tf_cap) + 1) {
      return Status::InvalidArgument(StrFormat(
          "tuple-factor attribute '%s' has %d codes, but tf_cap %d needs %lld",
          attr.qualified.c_str(), attr.disc.vocab_size(), cfg.tf_cap,
          static_cast<long long>(cfg.tf_cap) + 1));
    }
  }
  for (const auto& tname : model->path_) {
    RESTORE_RETURN_IF_ERROR(db.GetTable(tname).status());
  }

  // Rebuild the SSAR evidence indexes from the database and check they match
  // what the model was trained against.
  if (cfg.use_ssar) {
    RESTORE_RETURN_IF_ERROR(model->SetupSsar(db));
  }
  if (model->ssar_enabled_ != saved_ssar) {
    return Status::InvalidArgument(
        "model file SSAR wiring does not match this database");
  }
  if (saved_ssar) {
    if (model->ssar_child_tables_ != saved_child_tables ||
        model->ssar_child_encoders_.size() != saved_encoder_names.size()) {
      return Status::InvalidArgument(
          "model file child-evidence tables do not match this database");
    }
    for (size_t t = 0; t < model->ssar_child_encoders_.size(); ++t) {
      const RowEncoder& enc = model->ssar_child_encoders_[t];
      std::vector<std::string> names;
      for (size_t i = 0; i < enc.num_attrs(); ++i) names.push_back(enc.name(i));
      if (names != saved_encoder_names[t] ||
          enc.VocabSizes() != saved_vocab_sizes[t]) {
        return Status::InvalidArgument(
            "model file child-evidence schema does not match this database");
      }
    }
  }

  // Reconstruct the networks (masks/shapes are pure functions of the config)
  // and overwrite their parameters with the saved values.
  MadeConfig made_config;
  for (const auto& a : model->attrs_) {
    made_config.vocab_sizes.push_back(a.disc.vocab_size());
  }
  made_config.embed_dim = cfg.embed_dim;
  made_config.hidden_dim = cfg.hidden_dim;
  made_config.num_layers = cfg.num_layers;
  made_config.context_dim = model->ssar_enabled_ ? cfg.context_dim : 0;
  Rng init_rng(cfg.seed);
  model->made_ = std::make_unique<MadeModel>(made_config, init_rng);
  std::vector<Param*> made_params;
  model->made_->CollectParams(&made_params);
  RESTORE_RETURN_IF_ERROR(LoadParams(r, made_params, "MADE"));

  size_t num_parameters = 0;
  for (Param* p : made_params) num_parameters += p->value.size();
  if (model->ssar_enabled_) {
    std::vector<DeepSetsEncoder::TableSpec> specs;
    for (const auto& enc : model->ssar_child_encoders_) {
      specs.push_back({enc.VocabSizes()});
    }
    model->deep_sets_ = std::make_unique<DeepSetsEncoder>(
        specs, cfg.embed_dim, cfg.phi_dim, cfg.context_dim, init_rng);
    std::vector<Param*> ds_params;
    model->deep_sets_->CollectParams(&ds_params);
    RESTORE_RETURN_IF_ERROR(LoadParams(r, ds_params, "deep-sets"));
    for (Param* p : ds_params) num_parameters += p->value.size();
  }
  RESTORE_RETURN_IF_ERROR(r->status());
  if (model->num_parameters_ != num_parameters) {
    return Status::InvalidArgument(
        "model file parameter count does not match the reconstructed model");
  }
  // The loaded parameters are final; freeze the masked-weight caches for
  // reentrant inference (mirrors the end of RunTraining).
  model->made_->FinalizeForInference();
  model->BuildTfPosteriorTables();
  return model;
}

}  // namespace restore
