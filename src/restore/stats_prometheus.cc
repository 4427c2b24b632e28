#include "restore/stats_prometheus.h"

#include <cinttypes>
#include <cstdio>

#include "common/string_util.h"

namespace restore {

namespace {

/// Renders a sample value: integral values without a fraction (the common
/// case for counters), everything else with enough digits to round-trip.
std::string RenderValue(double value) {
  if (value == static_cast<double>(static_cast<int64_t>(value)) &&
      value >= -1e15 && value <= 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64,
                  static_cast<int64_t>(value));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string PrometheusLabel(const std::string& name,
                            const std::string& value) {
  std::string out = name;
  out += "=\"";
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

std::string JoinPrometheusLabels(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

void PrometheusRenderer::Add(const std::string& name, const std::string& help,
                             const std::string& type,
                             const std::string& labels, double value) {
  for (Family& family : families_) {
    if (family.name == name) {
      family.samples.push_back({labels, value});
      return;
    }
  }
  families_.push_back({name, help, type, {{labels, value}}});
}

void PrometheusRenderer::Counter(const std::string& name,
                                 const std::string& help,
                                 const std::string& labels, double value) {
  Add(name, help, "counter", labels, value);
}

void PrometheusRenderer::Gauge(const std::string& name,
                               const std::string& help,
                               const std::string& labels, double value) {
  Add(name, help, "gauge", labels, value);
}

void PrometheusRenderer::AddDbStats(const std::string& labels,
                                    const Db::Stats& stats) {
  const struct {
    const char* outcome;
    uint64_t count;
  } outcomes[] = {
      {"ok", stats.queries_ok},
      {"cancelled", stats.queries_cancelled},
      {"deadline_exceeded", stats.queries_deadline_exceeded},
      {"failed", stats.queries_failed},
  };
  for (const auto& o : outcomes) {
    Counter("restore_queries_total", "Finished queries by outcome.",
            JoinPrometheusLabels(labels, PrometheusLabel("outcome", o.outcome)),
            static_cast<double>(o.count));
  }

  const ExecStats& t = stats.totals;
  const struct {
    const char* stage;
    double seconds;
  } stages[] = {
      {"parse", t.parse_seconds},         {"plan", t.plan_seconds},
      {"selection", t.selection_seconds}, {"sample", t.sample_seconds},
      {"aggregate", t.aggregate_seconds},
  };
  for (const auto& s : stages) {
    Counter("restore_query_stage_seconds_total",
            "Wall-clock seconds spent per query pipeline stage, summed over "
            "finished queries.",
            JoinPrometheusLabels(labels, PrometheusLabel("stage", s.stage)),
            s.seconds);
  }

  Counter("restore_tuples_completed_total",
          "Tuples synthesized by completion models.", labels,
          static_cast<double>(t.tuples_completed));
  Counter("restore_models_consulted_total",
          "PathModel lookups performed by queries.", labels,
          static_cast<double>(t.models_consulted));
  Counter("restore_cache_hits_total", "Completion-cache hits.", labels,
          static_cast<double>(t.cache_hits));
  Counter("restore_cache_misses_total", "Completion-cache misses.", labels,
          static_cast<double>(t.cache_misses));
  Counter("restore_arenas_leased_total",
          "Inference scratch arenas leased by queries.", labels,
          static_cast<double>(t.arenas_leased));

  Counter("restore_rows_ingested_total",
          "Rows appended to base relations via Db::Append.", labels,
          static_cast<double>(stats.rows_ingested));
  Counter("restore_tables_updated_total",
          "Whole-table replacements applied via Db::UpdateTable.", labels,
          static_cast<double>(stats.tables_updated));
  Counter("restore_models_refreshed_total",
          "Path models hot-swapped to a new generation after retraining.",
          labels, static_cast<double>(stats.models_refreshed));
  Counter("restore_refresh_failures_total",
          "Background retrains that failed (previous generation kept "
          "serving).",
          labels, static_cast<double>(stats.refresh_failures));
  Counter("restore_generations_retired_total",
          "Model generations superseded by a hot swap.", labels,
          static_cast<double>(stats.generations_retired));
  Counter("restore_refresh_retries_total",
          "Retrain retries after a transient failure (exponential backoff).",
          labels, static_cast<double>(stats.refresh_retries));
  Counter("restore_breaker_open_total",
          "Times a path's circuit breaker opened after consecutive training "
          "failures.",
          labels, static_cast<double>(stats.breaker_open_total));
  Gauge("restore_breakers_open",
        "Paths whose circuit breaker is open right now (serving their last "
        "good generation, or failing fast with no generation).",
        labels, static_cast<double>(stats.breakers_open));
  Gauge("restore_refresh_failure_streak",
        "Consecutive background retrain failures since the last success.",
        labels, static_cast<double>(stats.refresh_failure_streak));
  Counter("restore_save_failures_total",
          "SaveModels calls that failed (the previous committed generation "
          "stays loadable).",
          labels, static_cast<double>(stats.save_failures));
  Gauge("restore_db_epoch", "Data/model visibility epoch (0 = frozen Db).",
        labels, static_cast<double>(stats.epoch));
}

void PrometheusRenderer::AddDbFreshness(const std::string& labels,
                                        const std::vector<ModelInfo>& models) {
  for (const ModelInfo& info : models) {
    const std::string path_labels = JoinPrometheusLabels(
        labels, PrometheusLabel("path", Join(info.path, "->")));
    Gauge("restore_model_staleness_rows",
          "Rows ingested into a path's tables since its serving model was "
          "trained.",
          path_labels, static_cast<double>(info.staleness_rows));
    Gauge("restore_model_generation",
          "Generation number of the serving model for a path.", path_labels,
          static_cast<double>(info.generation));
    Gauge("restore_model_breaker_open",
          "1 when the path's circuit breaker is open (retrains fail fast; "
          "the last good generation keeps serving).",
          path_labels, info.breaker_open ? 1.0 : 0.0);
    // A model without a training reference has nothing to score against —
    // it emits no drift samples rather than a fake zero.
    if (info.drift_available) {
      Gauge("restore_model_drift",
            "Distribution drift of a path's current data against its "
            "serving model's training-time reference (ks = worst per-column "
            "two-sample KS statistic, psi = worst population stability "
            "index).",
            JoinPrometheusLabels(path_labels, PrometheusLabel("stat", "ks")),
            info.drift_ks);
      Gauge("restore_model_drift",
            "Distribution drift of a path's current data against its "
            "serving model's training-time reference (ks = worst per-column "
            "two-sample KS statistic, psi = worst population stability "
            "index).",
            JoinPrometheusLabels(path_labels, PrometheusLabel("stat", "psi")),
            info.drift_psi);
    }
  }
}

std::string PrometheusRenderer::Render() const {
  std::string out;
  for (const Family& family : families_) {
    out += "# HELP " + family.name + " " + family.help + "\n";
    out += "# TYPE " + family.name + " " + family.type + "\n";
    for (const Sample& sample : family.samples) {
      out += family.name;
      if (!sample.labels.empty()) out += "{" + sample.labels + "}";
      out += " " + RenderValue(sample.value) + "\n";
    }
  }
  return out;
}

std::string StatsToPrometheus(const Db::Stats& stats,
                              const std::string& labels) {
  PrometheusRenderer out;
  out.AddDbStats(labels, stats);
  return out.Render();
}

}  // namespace restore
