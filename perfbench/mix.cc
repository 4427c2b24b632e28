#include "mix.h"

#include <algorithm>
#include <cmath>
#include <regex>
#include <set>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/workload.h"
#include "exec/executor.h"
#include "http_client.h"
#include "metrics/metrics.h"
#include "server/http.h"

namespace restore {
namespace perfbench {
namespace {

// The removal parameters serve_housing uses.
constexpr double kKeepRate = 0.5;
constexpr double kRemovalCorrelation = 0.5;
constexpr int kMaxRedraws = 16;

/// Base tables of "FROM a NATURAL JOIN b ..." in `sql`.
std::vector<std::string> FromTables(const std::string& sql) {
  static const std::regex kFrom(R"(FROM\s+(.*?)(\s+WHERE|\s+GROUP|\s*;))");
  static const std::regex kName(R"([a-z_]+)");
  std::vector<std::string> tables;
  std::smatch m;
  if (!std::regex_search(sql, m, kFrom)) return tables;
  const std::string list = m[1].str();
  for (auto it = std::sregex_iterator(list.begin(), list.end(), kName);
       it != std::sregex_iterator(); ++it) {
    const std::string word = it->str();
    if (word != "NATURAL" && word != "JOIN") tables.push_back(word);
  }
  return tables;
}

const Column* FindColumn(const Database& db,
                         const std::vector<std::string>& tables,
                         const std::string& column) {
  for (const auto& name : tables) {
    auto table = db.GetTable(name);
    if (!table.ok()) continue;
    auto col = (*table)->GetColumn(column);
    if (col.ok()) return *col;
  }
  return nullptr;
}

/// A constant for `col <op> ...` drawn from the column's values.
std::string SampleConstant(const Column& col, const std::string& op,
                           Rng& rng) {
  std::vector<size_t> rows;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!col.IsNull(r)) rows.push_back(r);
  }
  if (rows.empty()) return "";
  if (op == "=" || col.type() == ColumnType::kCategorical) {
    const Value v = col.GetValue(rows[rng.NextUint64(rows.size())]);
    return v.is_string() ? "'" + v.string_value() + "'" : v.ToString();
  }
  std::vector<double> values;
  values.reserve(rows.size());
  for (size_t r : rows) values.push_back(col.GetNumeric(r));
  std::sort(values.begin(), values.end());
  const double q = rng.NextUniform(0.05, 0.6);
  const double v = values[static_cast<size_t>(q * (values.size() - 1))];
  return col.type() == ColumnType::kInt64
             ? std::to_string(static_cast<int64_t>(v))
             : StrFormat("%.17g", v);
}

/// `sql` with every `column = const` / `column >= const` re-drawn.
std::string DrawInstance(const std::string& sql, const Database& complete,
                         Rng& rng) {
  static const std::regex kPred(R"(([a-z_]+)\s*(>=|=)\s*('[^']*'|-?[0-9.]+))");
  const std::vector<std::string> tables = FromTables(sql);
  std::string out;
  auto last = sql.cbegin();
  for (auto it = std::sregex_iterator(sql.begin(), sql.end(), kPred);
       it != std::sregex_iterator(); ++it) {
    const std::smatch& m = *it;
    const Column* col = FindColumn(complete, tables, m[1].str());
    std::string value = col == nullptr ? "" : SampleConstant(*col, m[2], rng);
    if (value.empty()) value = m[3].str();
    out.append(last, m[0].first);
    out += m[1].str() + m[2].str() + value;
    last = m[0].second;
  }
  out.append(last, sql.cend());
  return out;
}

/// True when every relative error against `truth` is defined.
bool UsableTruth(const ResultSet& truth) {
  if (truth.num_rows() == 0) return false;
  for (size_t r = 0; r < truth.num_rows(); ++r) {
    for (size_t c = 0; c < truth.num_value_columns(); ++c) {
      const double v = truth.value(r, c);
      if (!std::isfinite(v) || v == 0.0) return false;
    }
  }
  return true;
}

std::string JsonCell(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_string()) return "\"" + server::JsonEscape(v.string_value()) + "\"";
  if (v.is_int64()) return std::to_string(v.int64());
  return server::JsonNumber(v.double_value());
}

}  // namespace

Result<std::vector<std::unique_ptr<Tenant>>> BuildTenants(
    uint64_t seed, DataScale scale, const DbOptions& options) {
  RESTORE_ASSIGN_OR_RETURN(Database housing,
                           BuildCompleteDatabase("housing", seed, scale.housing));
  RESTORE_ASSIGN_OR_RETURN(
      Database movies, BuildCompleteDatabase("movies", seed + 1, scale.movies));
  auto housing_ptr = std::make_shared<const Database>(std::move(housing));
  auto movies_ptr = std::make_shared<const Database>(std::move(movies));

  std::vector<CompletionSetup> setups = HousingSetups();
  for (auto& s : MovieSetups()) setups.push_back(std::move(s));
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (size_t i = 0; i < setups.size(); ++i) {
    auto tenant = std::make_unique<Tenant>();
    tenant->setup = setups[i];
    tenant->name = ToLower(setups[i].name);
    tenant->complete = setups[i].dataset == "housing" ? housing_ptr : movies_ptr;
    RESTORE_ASSIGN_OR_RETURN(
        Database incomplete,
        ApplySetup(*tenant->complete, tenant->setup, kKeepRate,
                   kRemovalCorrelation, seed + 10 + i));
    tenant->incomplete = std::make_unique<Database>(std::move(incomplete));
    RESTORE_ASSIGN_OR_RETURN(
        tenant->db, Db::Open(tenant->incomplete.get(),
                             AnnotationFor(tenant->setup), options));
    tenants.push_back(std::move(tenant));
  }
  return tenants;
}

Result<std::vector<MixQuery>> GenerateMix(
    const std::vector<std::unique_ptr<Tenant>>& tenants, uint64_t seed,
    size_t variants) {
  std::vector<WorkloadQuery> templates = HousingWorkload();
  for (auto& q : MovieWorkload()) templates.push_back(std::move(q));
  Rng rng(seed * 7919 + 17);
  std::vector<MixQuery> mix;
  for (const WorkloadQuery& wq : templates) {
    size_t tenant = tenants.size();
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (tenants[t]->setup.name == wq.setup) tenant = t;
    }
    if (tenant == tenants.size()) {
      return Status::NotFound("no tenant for setup " + wq.setup);
    }
    const Tenant& owner = *tenants[tenant];
    std::set<std::string> seen;
    for (size_t v = 0; v < variants; ++v) {
      MixQuery q;
      bool found = false;
      for (int attempt = 0; attempt < kMaxRedraws && !found; ++attempt) {
        q.sql = DrawInstance(wq.sql, *owner.complete, rng);
        if (seen.count(q.sql) > 0) continue;
        auto truth = ExecuteSql(*owner.complete, q.sql);
        if (!truth.ok() || !UsableTruth(*truth)) continue;
        q.truth = std::move(*truth);
        found = true;
      }
      if (!found) continue;  // the column's domain has fewer instances
      seen.insert(q.sql);
      q.tenant = tenant;
      q.request = PostRequest("/v1/query/" + owner.name, q.sql);
      mix.push_back(std::move(q));
    }
  }
  if (mix.empty()) return Status::Internal("empty query mix");
  return mix;
}

std::string RenderRows(const ResultSet& rs) {
  std::string out;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    for (size_t c = 0; c < rs.num_key_columns(); ++c) {
      if (c > 0) out += ',';
      out += '"' + server::JsonEscape(rs.key(r, c)) + '"';
    }
    for (size_t c = 0; c < rs.num_value_columns(); ++c) {
      if (c > 0 || rs.num_key_columns() > 0) out += ',';
      out += server::JsonNumber(rs.value(r, c));
    }
    out += ']';
  }
  return out;
}

Status WarmAndPin(const std::vector<std::unique_ptr<Tenant>>& tenants,
                  std::vector<MixQuery>* mix) {
  for (MixQuery& q : *mix) {
    Session session = tenants[q.tenant]->db->CreateSession();
    RESTORE_ASSIGN_OR_RETURN(ResultSet rs, session.Execute(q.sql));
    std::string rows = RenderRows(rs);
    if (q.pinned) {
      if (rows != q.pinned_rows) {
        return Status::Internal("set-up repetition changed the answer of " +
                                q.sql);
      }
      continue;
    }
    q.pinned = true;
    q.pinned_rows = std::move(rows);
    q.pinned_row_count = rs.num_rows();
    q.num_key_columns = rs.num_key_columns();
    q.num_value_columns = rs.num_value_columns();
    q.rel_error = AverageRelativeError(q.truth, rs);
  }
  return Status::OK();
}

Result<std::vector<IngestBatch>> HeldOutBatches(const Tenant& tenant,
                                                size_t tenant_index,
                                                size_t batch_rows,
                                                uint64_t seed) {
  const std::string& name = tenant.setup.removed_table;
  RESTORE_ASSIGN_OR_RETURN(const Table* full, tenant.complete->GetTable(name));
  RESTORE_ASSIGN_OR_RETURN(const Table* kept,
                           tenant.incomplete->GetTable(name));
  RESTORE_ASSIGN_OR_RETURN(const Column* kept_ids, kept->GetColumn("id"));
  RESTORE_ASSIGN_OR_RETURN(const Column* full_ids, full->GetColumn("id"));
  std::set<int64_t> present(kept_ids->ints().begin(), kept_ids->ints().end());
  std::vector<size_t> removed;
  for (size_t r = 0; r < full->NumRows(); ++r) {
    if (present.count(full_ids->GetInt64(r)) == 0) removed.push_back(r);
  }
  Rng rng(seed * 104729 + tenant_index);
  rng.Shuffle(removed);

  // Positional against the incomplete table; columns the complete data does
  // not carry (tuple-factor bookkeeping) are NULL.
  std::vector<const Column*> source;
  for (const Column& col : kept->columns()) {
    auto src = full->GetColumn(col.name());
    source.push_back(src.ok() ? *src : nullptr);
  }
  std::vector<IngestBatch> batches;
  for (size_t begin = 0; begin + batch_rows <= removed.size();
       begin += batch_rows) {
    IngestBatch batch;
    batch.tenant = tenant_index;
    batch.table = name;
    std::string body = "[";
    for (size_t i = begin; i < begin + batch_rows; ++i) {
      std::vector<Value> row;
      if (i > begin) body += ',';
      body += '[';
      for (size_t c = 0; c < source.size(); ++c) {
        row.push_back(source[c] == nullptr ? Value::Null()
                                           : source[c]->GetValue(removed[i]));
        if (c > 0) body += ',';
        body += JsonCell(row.back());
      }
      body += ']';
      batch.rows.push_back(std::move(row));
    }
    body += ']';
    batch.request =
        PostRequest("/v1/ingest/" + tenant.name + "/" + name, body);
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::vector<std::string> IncompleteTables(const Tenant& tenant) {
  const auto& tables = tenant.db->annotation().incomplete_tables();
  return std::vector<std::string>(tables.begin(), tables.end());
}

}  // namespace perfbench
}  // namespace restore
