#ifndef RESTORE_PERFBENCH_MIX_H_
#define RESTORE_PERFBENCH_MIX_H_

// Inputs of the benchmark, all derived from the workload seed: the ten
// Table 1 tenants (H1-H5, M1-M5) built by src/datagen, the query mix drawn
// from HousingWorkload()/MovieWorkload() with filter constants sampled from
// each column's domain, the answers pinned for every distinct query, and
// the held-out tuples the live-ingest stream re-appends.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/setups.h"
#include "exec/result_set.h"
#include "restore/db.h"
#include "storage/database.h"

namespace restore {
namespace perfbench {

struct DataScale {
  double housing = 1.0;  // multiplies HousingConfig's table sizes
  double movies = 1.0;   // multiplies MoviesConfig's table sizes
};

/// One served setup: its complete and incomplete data and its Db.
struct Tenant {
  std::string name;  // "h1".."h5", "m1".."m5"
  CompletionSetup setup;
  std::shared_ptr<const Database> complete;  // shared by a dataset's setups
  std::unique_ptr<Database> incomplete;      // outlives `db`
  std::shared_ptr<Db> db;
};

/// Generates both complete datasets, derives the ten incomplete setups and
/// opens one Db per setup with `options`. Models train lazily (see Warm).
Result<std::vector<std::unique_ptr<Tenant>>> BuildTenants(
    uint64_t seed, DataScale scale, const DbOptions& options);

/// One distinct query of the mix.
struct MixQuery {
  size_t tenant = 0;      // index into the tenant list
  std::string sql;
  std::string request;    // ready-to-send POST /v1/query/<tenant>
  ResultSet truth;        // the same SQL over the complete database
  // Pinned answer (first in-process Session::Execute at set-up), rendered
  // exactly as the server renders its "rows" array.
  bool pinned = false;
  std::string pinned_rows;
  size_t pinned_row_count = 0;
  size_t num_key_columns = 0;
  size_t num_value_columns = 0;
  double rel_error = 0.0;  // AverageRelativeError(truth, pinned)
};

/// Draws `variants` distinct instances of every Table 1 query. Filter
/// constants are sampled from the column's values in the complete data
/// (categorical: a random row's value; numeric `>=`: a random quantile in
/// [0.05, 0.6]); an instance whose true answer is empty or has a zero
/// aggregate is redrawn, so every relative error is defined.
Result<std::vector<MixQuery>> GenerateMix(
    const std::vector<std::unique_ptr<Tenant>>& tenants, uint64_t seed,
    size_t variants);

/// Runs every query once in-process (Session::Execute) — training the models
/// the mix needs and filling the completion cache — and pins the answers
/// and their relative errors into `mix`. When `mix` is already pinned, the
/// answers must match bit for bit (returns Internal otherwise).
Status WarmAndPin(const std::vector<std::unique_ptr<Tenant>>& tenants,
                  std::vector<MixQuery>* mix);

/// The server's JSON rendering of a result's rows (without the brackets).
std::string RenderRows(const ResultSet& rs);

/// A batch of held-out tuples: rows of the complete table that the setup
/// removed, positional against the tenant's incomplete table.
struct IngestBatch {
  size_t tenant = 0;
  std::string table;
  std::vector<std::vector<Value>> rows;
  std::string request;  // ready-to-send POST /v1/ingest/<tenant>/<table>
};

/// Splits the removed rows of `tenant`'s systematically incomplete table
/// into batches of `batch_rows`, in a seed-shuffled order.
Result<std::vector<IngestBatch>> HeldOutBatches(const Tenant& tenant,
                                                size_t tenant_index,
                                                size_t batch_rows,
                                                uint64_t seed);

/// The incomplete tables of a tenant, in annotation order.
std::vector<std::string> IncompleteTables(const Tenant& tenant);

}  // namespace perfbench
}  // namespace restore

#endif  // RESTORE_PERFBENCH_MIX_H_
