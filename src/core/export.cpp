#include "src/core/export.h"

#include <algorithm>
#include <set>
#include <vector>

#include "src/analysis/churn.h"
#include "src/analysis/cluster.h"
#include "src/analysis/diffs.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/analysis/staleness.h"
#include "src/synth/user_agents.h"
#include "src/util/table.h"

namespace rs::core {

using rs::util::fmt_double;
using rs::util::TextTable;

/// The six derivatives Figures 3 and 4 follow against NSS.
constexpr const char* kDerivatives[] = {"Alpine", "AmazonLinux", "Android",
                                        "NodeJS", "Debian",      "Ubuntu"};

std::string figure1_csv(const EcosystemStudy& study,
                        std::size_t max_per_provider) {
  rs::analysis::JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);
  opts.max_per_provider = max_per_provider;
  const auto dist =
      rs::analysis::jaccard_matrix(study.database(), study.membership(), opts);
  const auto mds = rs::analysis::smacof_mds(dist);
  const auto clustering = rs::analysis::cluster_snapshots(dist, 0.35);

  TextTable t({"provider", "family", "date", "version", "x", "y", "cluster"});
  for (std::size_t i = 0; i < dist.size(); ++i) {
    const auto& label = dist.labels[i];
    const auto program = rs::synth::program_of_provider(label.provider);
    t.add_row({label.provider, program ? rs::synth::to_string(*program) : "?",
               label.date.to_string(), label.version,
               fmt_double(mds.points[i].x, 6), fmt_double(mds.points[i].y, 6),
               std::to_string(clustering.assignment[i])});
  }
  return t.render_csv();
}

std::string figure3_csv(const EcosystemStudy& study) {
  const auto& db = study.database();
  const auto* nss = db.find("NSS");
  TextTable t({"provider", "date", "matched_version", "current_version",
               "versions_behind"});
  if (nss == nullptr) return t.render_csv();
  const auto& table = study.membership();
  const auto index = rs::analysis::build_version_index(*nss, table);
  for (const char* name : kDerivatives) {
    const auto* h = db.find(name);
    if (h == nullptr) continue;
    const auto res = rs::analysis::derivative_staleness(*h, table, index);
    for (const auto& p : res.points) {
      t.add_row({name, p.date.to_string(), std::to_string(p.matched_version),
                 std::to_string(p.current_version),
                 fmt_double(p.versions_behind, 1)});
    }
  }
  return t.render_csv();
}

std::string figure4_csv(const EcosystemStudy& study) {
  std::vector<std::string> header = {"provider", "date", "matched_version"};
  for (std::size_t c = 0; c < rs::analysis::kAddCategoryCount; ++c) {
    header.push_back("add_" + std::string(rs::analysis::to_string(
                                  static_cast<rs::analysis::AddCategory>(c))));
  }
  for (std::size_t c = 0; c < rs::analysis::kRemoveCategoryCount; ++c) {
    header.push_back(
        "remove_" + std::string(rs::analysis::to_string(
                        static_cast<rs::analysis::RemoveCategory>(c))));
  }
  // CSV headers want no spaces; normalize.
  for (auto& name : header) std::replace(name.begin(), name.end(), ' ', '_');
  TextTable t(std::move(header));

  const auto& db = study.database();
  const auto* nss = db.find("NSS");
  if (nss == nullptr) return t.render_csv();
  const auto& table = study.membership();
  const auto index = rs::analysis::build_version_index(*nss, table);
  for (const char* name : kDerivatives) {
    const auto* h = db.find(name);
    if (h == nullptr) continue;
    const auto series = rs::analysis::derivative_diffs(*h, *nss, table, index);
    for (const auto& p : series.points) {
      std::vector<std::string> row = {name, p.date.to_string(),
                                      std::to_string(p.matched_version)};
      for (auto v : p.adds) row.push_back(std::to_string(v));
      for (auto v : p.removes) row.push_back(std::to_string(v));
      t.add_row(std::move(row));
    }
  }
  return t.render_csv();
}

std::string churn_csv(const EcosystemStudy& study) {
  std::vector<rs::analysis::ChurnSeries> all;
  for (const auto& [name, history] : study.database().histories()) {
    (void)name;
    all.push_back(rs::analysis::churn_series(history, study.membership()));
  }
  const auto outliers = rs::analysis::find_outliers(all);
  std::set<std::pair<std::string, std::int64_t>> outlier_keys;
  for (const auto& o : outliers) {
    outlier_keys.emplace(o.provider, o.point.date.days_since_epoch());
  }

  TextTable t({"provider", "date", "added", "removed", "change_fraction",
               "is_outlier"});
  for (const auto& series : all) {
    for (const auto& p : series.points) {
      const bool outlier = outlier_keys.contains(
          {series.provider, p.date.days_since_epoch()});
      t.add_row({series.provider, p.date.to_string(), std::to_string(p.added),
                 std::to_string(p.removed), fmt_double(p.change_fraction, 4),
                 outlier ? "1" : "0"});
    }
  }
  return t.render_csv();
}

}  // namespace rs::core
