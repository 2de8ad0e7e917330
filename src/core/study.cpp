#include "src/core/study.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/analysis/attribution.h"
#include "src/analysis/cadence.h"
#include "src/analysis/churn.h"
#include "src/analysis/cluster.h"
#include "src/analysis/diffs.h"
#include "src/analysis/exclusive.h"
#include "src/analysis/hygiene.h"
#include "src/analysis/incident_response.h"
#include "src/analysis/jaccard.h"
#include "src/analysis/mds.h"
#include "src/analysis/operators.h"
#include "src/analysis/removals.h"
#include "src/analysis/staleness.h"
#include "src/landscape/index_view.h"
#include "src/obs/span.h"
#include "src/query/trust_index.h"
#include "src/synth/ct_log.h"
#include "src/synth/paper_reference.h"
#include "src/synth/software_survey.h"
#include "src/synth/user_agents.h"
#include "src/util/table.h"

namespace rs::core {

using rs::util::Align;
using rs::util::fmt_double;
using rs::util::fmt_percent;
using rs::util::TextTable;

EcosystemStudy EcosystemStudy::from_paper_scenario(std::uint64_t seed,
                                                   const StudyOptions& options) {
  return EcosystemStudy(rs::synth::build_paper_scenario(seed), options);
}

EcosystemStudy::EcosystemStudy(rs::synth::PaperScenario scenario,
                               const StudyOptions& options)
    : scenario_(std::move(scenario)), options_(options) {
  rs::obs::Span span("study/build");
  if (options_.num_threads > 0) {
    pool_ = std::make_shared<rs::exec::ThreadPool>(options_.num_threads);
  }
  // Dense IDs and per-snapshot membership over the whole database, built
  // once: every report's set algebra (Jaccard pairs, version matching,
  // diffs, exclusives, the TrustIndex) reads these rows.
  membership_ = std::make_shared<const rs::store::MembershipTable>(
      rs::store::MembershipTable::build(scenario_.database(), pool()));
}

std::string EcosystemStudy::report_table1() const {
  rs::obs::Span span("report/table1");
  const auto population = rs::synth::user_agent_population();
  const auto summary = rs::analysis::coverage_summary(population);

  TextTable t({"OS", "User Agent", "# versions", "Included?", "Provider"});
  t.set_align(2, Align::kRight);
  std::string last_os;
  for (const auto& g : population) {
    if (g.os != last_os && !last_os.empty()) t.add_separator();
    t.add_row({g.os == last_os ? "" : g.os, g.agent,
               std::to_string(g.versions), g.included ? "yes" : "no",
               g.provider});
    last_os = g.os;
  }

  std::string out = "Table 1: Major CDN Top 200 User Agents\n" + t.render();
  out += "\nTotal included: " + std::to_string(summary.included_user_agents) +
         " of " + std::to_string(summary.total_user_agents) + " (" +
         fmt_percent(summary.coverage) + ")  [paper: 154 (77.0%)]\n";
  return out;
}

std::string EcosystemStudy::report_table2() const {
  rs::obs::Span span("report/table2");
  const auto reference = rs::synth::paper::table2_dataset();
  TextTable t({"Root store", "From", "To", "# SS", "# SS (paper)", "# Uniq",
               "# Uniq (paper)", "Details"});
  for (std::size_t i = 3; i <= 6; ++i) t.set_align(i, Align::kRight);

  std::size_t measured_total = 0;
  int paper_total = 0;
  for (const auto& row : reference) {
    const auto* h = database().find(row.provider);
    if (h == nullptr || h->empty()) continue;
    // "# Uniq" counts store states: the first snapshot plus every change
    // between consecutive present rows (§6.1's substantial updates).
    const std::size_t uniq =
        rs::analysis::update_cadence(*h, *membership_).substantial_updates;
    measured_total += h->size();
    paper_total += row.snapshots;
    t.add_row({row.provider, h->first_date().to_string(),
               h->last_date().to_string(), std::to_string(h->size()),
               std::to_string(row.snapshots), std::to_string(uniq),
               std::to_string(row.unique_stores), row.details});
  }
  std::string out = "Table 2: Dataset (root store histories)\n" + t.render();
  out += "\nTotal snapshots: measured " + std::to_string(measured_total) +
         ", paper " + std::to_string(paper_total) + "\n";
  return out;
}

std::string EcosystemStudy::report_table3() const {
  rs::obs::Span span("report/table3");
  const auto reference = rs::synth::paper::table3_hygiene();
  TextTable t({"Root store", "Avg. Size", "(paper)", "Avg. Expired", "(paper)",
               "MD5 purge", "(paper)", "1024-bit purge", "(paper)"});
  for (std::size_t i = 1; i <= 4; ++i) t.set_align(i, Align::kRight);

  auto month_of = [](const std::optional<rs::util::Date>& d) {
    if (!d) return std::string("never");
    return d->to_string().substr(0, 7);
  };
  for (const auto& row : reference) {
    const auto* h = database().find(row.program);
    if (h == nullptr) continue;
    const auto m = rs::analysis::hygiene_metrics(*h);
    t.add_row({row.program, fmt_double(m.avg_size, 1),
               fmt_double(row.avg_size, 1), fmt_double(m.avg_expired, 1),
               fmt_double(row.avg_expired, 1), month_of(m.md5_removed),
               row.md5_removed, month_of(m.weak_rsa_removed),
               row.rsa1024_removed});
  }
  return "Table 3: Root store hygiene (measured vs paper)\n" + t.render();
}

std::string EcosystemStudy::report_table4() {
  rs::obs::Span span("report/table4");
  std::string out = "Table 4: Responses to high-severity NSS removals\n";
  for (const auto& incident : rs::synth::high_severity_incidents()) {
    const auto measured = rs::analysis::measure_incident(
        database(), incident, scenario_.factory(), &scenario_.overlays());
    out += "\n" + incident.name + " [" + incident.details +
           "]  NSS removal: " + incident.nss_removal.to_string() + "\n";
    TextTable t({"Root store", "# Certs", "Trusted until", "Lag (days)",
                 "Paper lag", "Note"});
    t.set_align(1, Align::kRight);
    t.set_align(3, Align::kRight);
    t.set_align(4, Align::kRight);

    // Order rows by measured trusted_until (paper's presentation order).
    auto rows = measured.responses;
    std::sort(rows.begin(), rows.end(),
              [](const rs::analysis::MeasuredResponse& a,
                 const rs::analysis::MeasuredResponse& b) {
                if (a.still_trusted != b.still_trusted)
                  return !a.still_trusted;
                if (!a.trusted_until || !b.trusted_until)
                  return a.provider < b.provider;
                return *a.trusted_until < *b.trusted_until;
              });
    for (const auto& r : rows) {
      const rs::synth::PaperResponse* paper_row = nullptr;
      for (const auto& p : incident.responses) {
        if (p.provider == r.provider) paper_row = &p;
      }
      std::string until = r.still_trusted
                              ? "still trusted"
                              : (r.trusted_until ? r.trusted_until->to_string()
                                                 : "-");
      std::string lag = r.lag_days ? std::to_string(*r.lag_days)
                                   : (r.still_trusted ? "ongoing" : "-");
      std::string paper_lag =
          paper_row && paper_row->lag_days
              ? std::to_string(*paper_row->lag_days)
              : (paper_row && !paper_row->trusted_until ? "ongoing" : "-");
      std::string note = paper_row ? paper_row->note : "";
      if (r.revoked_not_removed > 0) {
        if (!note.empty()) note += "; ";
        note += "measured: " + std::to_string(r.revoked_not_removed) +
                " root(s) revoked via overlay but still shipped";
      }
      t.add_row({r.provider, std::to_string(r.certs_carried), until, lag,
                 paper_lag, note});
    }
    out += t.render();
  }
  return out;
}

std::string EcosystemStudy::report_table5() const {
  rs::obs::Span span("report/table5");
  TextTable t({"Category", "Name", "Root store?", "Details"});
  std::string last;
  for (const auto& s : rs::synth::software_survey()) {
    const std::string cat = rs::synth::to_string(s.kind);
    if (cat != last && !last.empty()) t.add_separator();
    t.add_row({cat == last ? "" : cat, s.name, s.ships_root_store, s.details});
    last = cat;
  }
  return "Table 5 (Appendix A): Popular OS & TLS software root stores\n" +
         t.render();
}

std::string EcosystemStudy::report_table6() {
  rs::obs::Span span("report/table6");
  const std::vector<std::string> programs = {"NSS", "Java", "Apple",
                                             "Microsoft"};
  const auto measured =
      rs::analysis::exclusive_roots(database(), *membership_, programs);
  const auto reference = rs::synth::paper::table6_counts();

  std::string out =
      "Table 6 (Appendix B): program-exclusive TLS roots (measured vs "
      "paper)\n";
  TextTable summary({"Program", "Exclusive (measured)", "Exclusive (paper)"});
  summary.set_align(1, Align::kRight);
  summary.set_align(2, Align::kRight);
  for (const auto& ref : reference) {
    for (const auto& m : measured) {
      if (m.program == ref.program) {
        summary.add_row({ref.program, std::to_string(m.roots.size()),
                         std::to_string(ref.exclusive_roots)});
      }
    }
  }
  out += summary.render();

  out += "\nPer-root detail (scenario ground truth):\n";
  TextTable detail({"Root", "Program", "CA", "NSS status", "Details"});
  for (const auto& meta : scenario_.exclusive_roots()) {
    std::string short_id = meta.root_id;
    if (auto cert = scenario_.factory().find(meta.root_id)) {
      short_id = cert->short_id() + "...";
    }
    detail.add_row(
        {short_id, meta.program, meta.ca_name, meta.nss_status, meta.details});
  }
  out += detail.render();

  // CA-operator view (§5.2 reasons about issuers, not certificates).
  const auto single = rs::analysis::single_program_operators(
      database(), programs);
  std::map<std::string, std::size_t> per_program;
  for (const auto& f : single) {
    for (const auto& [program, _] : f.roots_per_program) {
      ++per_program[program];
    }
  }
  out += "\nCA operators trusted by exactly one program:\n";
  for (const auto& [program, count] : per_program) {
    out += "  " + program + ": " + std::to_string(count) + " operator(s)\n";
  }
  return out;
}

std::string EcosystemStudy::report_table7() {
  rs::obs::Span span("report/table7");
  TextTable t({"Bugzilla ID", "Severity", "Removed on", "# Certs", "Details"});
  t.set_align(3, Align::kRight);
  auto catalog = scenario_.incidents();
  std::sort(catalog.begin(), catalog.end(),
            [](const rs::synth::Incident& a, const rs::synth::Incident& b) {
              if (a.severity != b.severity)
                return static_cast<int>(a.severity) >
                       static_cast<int>(b.severity);
              return a.nss_removal > b.nss_removal;
            });
  for (const auto& inc : catalog) {
    t.add_row({inc.bugzilla_id, rs::synth::to_string(inc.severity),
               inc.nss_removal.to_string(),
               std::to_string(inc.root_ids.size()),
               inc.name + (inc.details.empty() ? "" : " - " + inc.details)});
  }
  std::string out =
      "Table 7 (Appendix C): NSS removals since 2010\n" + t.render();

  // §5.3's side-finding: Mozilla's Removed CA Report misses most routine
  // removals.  Audit the analog: the "report" covers the tracked incidents
  // (the Bugzilla-visible removals), while the history also contains
  // expiry- and purge-driven disappearances.
  const auto* nss = database().find("NSS");
  if (nss != nullptr) {
    const auto measured = rs::analysis::measured_removals(*nss);
    std::vector<rs::crypto::Sha256Digest> reported;
    auto& factory = scenario_.factory();
    for (const auto& inc : catalog) {
      for (const auto& id : inc.root_ids) {
        if (auto cert = factory.find(id)) reported.push_back(cert->sha256());
      }
    }
    const auto audit = rs::analysis::audit_removal_report(measured, reported);
    out += "\nRemoved-CA-report audit (vs measured certdata history):\n";
    out += "  removals visible in history: " + std::to_string(audit.measured) +
           "\n  covered by the report:       " + std::to_string(audit.covered) +
           "\n  missing from the report:     " + std::to_string(audit.missing) +
           " (" + std::to_string(audit.missing_expired) +
           " already expired at removal)\n";
    out += "(paper: manual analysis found 92 removals missing from Mozilla's "
           "Removed CA Report, mostly expirations and CA requests)\n";
  }
  return out;
}

std::string EcosystemStudy::report_figure1(std::size_t max_per_provider) const {
  rs::obs::Span span("report/fig1");
  rs::analysis::JaccardOptions opts;
  opts.min_date = rs::util::Date::ymd(2011, 1, 1);  // paper's Figure 1 window
  opts.max_per_provider = max_per_provider;
  const auto dist =
      rs::analysis::jaccard_matrix(database(), *membership_, opts);
  // SMACOF runs inline, as does every analysis that reads the table
  // (docs/PARALLELISM.md).
  const auto mds = rs::analysis::smacof_mds(dist);

  // Cluster and label by root program family.
  const auto clustering = rs::analysis::cluster_snapshots(dist, 0.35);
  std::vector<std::string> family;
  family.reserve(dist.size());
  for (const auto& label : dist.labels) {
    const auto program = rs::synth::program_of_provider(label.provider);
    family.push_back(program ? rs::synth::to_string(*program) : "?");
  }
  const auto quality = rs::analysis::cluster_quality(clustering, family);

  std::string out = "Figure 1: Root store similarity (SMACOF MDS of Jaccard "
                    "distances, 2011-2021)\n";
  out += "snapshots=" + std::to_string(dist.size()) +
         "  smacof-iterations=" + std::to_string(mds.iterations) +
         "  normalized-stress=" + fmt_double(mds.normalized_stress, 4) + "\n\n";

  // ASCII scatter: 72x28 grid, one letter per program family.
  constexpr int kW = 72, kH = 26;
  std::vector<std::string> grid(kH, std::string(kW, ' '));
  double min_x = 1e30, max_x = -1e30, min_y = 1e30, max_y = -1e30;
  for (const auto& p : mds.points) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double spanx = std::max(1e-12, max_x - min_x);
  const double spany = std::max(1e-12, max_y - min_y);
  auto family_char = [](const std::string& f) {
    if (f == "Microsoft") return 'M';
    if (f == "Apple") return 'A';
    if (f == "Java") return 'J';
    if (f == "Mozilla/NSS") return 'n';
    return '?';
  };
  for (std::size_t i = 0; i < mds.points.size(); ++i) {
    const int cx = static_cast<int>((mds.points[i].x - min_x) / spanx * (kW - 1));
    const int cy = static_cast<int>((mds.points[i].y - min_y) / spany * (kH - 1));
    grid[static_cast<std::size_t>(kH - 1 - cy)][static_cast<std::size_t>(cx)] =
        family_char(family[i]);
  }
  out += "  legend: M=Microsoft  A=Apple  J=Java  n=NSS family\n";
  for (const auto& row : grid) out += "  |" + row + "|\n";

  out += "\nClusters (single linkage, cutoff 0.35):\n";
  TextTable t({"Cluster", "Size", "Majority family", "Purity"});
  t.set_align(1, Align::kRight);
  const auto members = rs::analysis::cluster_members(clustering);
  for (std::size_t k = 0; k < members.size(); ++k) {
    t.add_row({std::to_string(k), std::to_string(members[k].size()),
               quality.majority_label[k], fmt_percent(quality.purity[k])});
  }
  out += t.render();
  out += "overall purity: " + fmt_percent(quality.overall_purity) +
         "   silhouette: " +
         fmt_double(rs::analysis::silhouette_score(dist, clustering), 3) +
         "   clusters found: " + std::to_string(clustering.cluster_count) +
         " (paper: 4 disjoint families)\n";

  // §4 outliers: snapshots preceded by unusually large batch changes
  // (the paper's Apple 2011-10 / 2014-02 / 2018-09 and Java 2018-08).
  std::vector<rs::analysis::ChurnSeries> churn;
  for (const auto& [name, history] : database().histories()) {
    (void)name;
    churn.push_back(rs::analysis::churn_series(history, *membership_));
  }
  const auto outliers = rs::analysis::find_outliers(churn);
  out += "\nOrdination outliers (batch-change snapshots, sigma >= 2):\n";
  std::size_t shown = 0;
  for (const auto& o : outliers) {
    if (shown++ >= 8) break;
    out += "  " + o.provider + " @ " + o.point.date.to_string() + ": +" +
           std::to_string(o.point.added) + " / -" +
           std::to_string(o.point.removed) + " roots (" +
           fmt_double(o.score, 1) + " sigma)\n";
  }
  if (outliers.empty()) out += "  (none)\n";
  out += "(paper: Java 2018-08 with 30 changed certificates; Apple 2011-10, "
         "2014-02, 2018-09)\n";
  return out;
}

std::string EcosystemStudy::report_figure2() const {
  rs::obs::Span span("report/fig2");
  const auto population = rs::synth::user_agent_population();
  const auto attribution = rs::analysis::attribute_programs(population);
  const auto reference = rs::synth::paper::figure2_shares();

  std::string out = "Figure 2: Root store ecosystem (inverted pyramid)\n";
  TextTable t({"Root program", "UA count", "Share", "Paper share"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);
  t.set_align(3, Align::kRight);
  for (const auto& ref : reference) {
    const auto it = attribution.ua_count.find(ref.program);
    const int count = it == attribution.ua_count.end() ? 0 : it->second;
    const auto share_it = attribution.ua_share.find(ref.program);
    const double share =
        share_it == attribution.ua_share.end() ? 0.0 : share_it->second;
    t.add_row({ref.program, std::to_string(count), fmt_percent(share),
               fmt_percent(ref.share)});
  }
  out += t.render();
  out += "unattributed UAs: " + std::to_string(attribution.unattributed) + "\n";

  // The inverted pyramid, drawn: many user agents, a dozen providers,
  // three-plus-one root programs.
  std::size_t ua_families = 0;
  for (const auto& g : population) {
    if (g.included) ++ua_families;
  }
  const auto providers = database().providers();
  out += "\n";
  out += "  user agents          " + std::string(60, 'v') + "  (" +
         std::to_string(population.size()) + " UA groups, " +
         std::to_string(ua_families) + " with stores)\n";
  out += "  root store providers     " + std::string(2 * providers.size(), 'v') +
         "  (" + std::to_string(providers.size()) + ": ";
  for (std::size_t i = 0; i < providers.size(); ++i) {
    if (i != 0) out += " ";
    out += providers[i];
  }
  out += ")\n";
  out += "  root programs                " + std::string(8, 'v') +
         "  (Microsoft, NSS, Apple + Java)\n";

  out += "\nProvider families (derivatives resolve to NSS):\n";
  for (const auto& name : providers) {
    const auto program = rs::synth::program_of_provider(name);
    out += "  " + name + " -> " +
           (program ? rs::synth::to_string(*program) : "?") + "\n";
  }
  return out;
}

std::string EcosystemStudy::report_figure3() const {
  rs::obs::Span span("report/fig3");
  const auto* nss = database().find("NSS");
  std::string out = "Figure 3: NSS derivative staleness\n";
  if (nss == nullptr) return out + "(no NSS history)\n";
  const auto index = rs::analysis::build_version_index(*nss, *membership_);
  out += "NSS substantial versions: " + std::to_string(index.size()) + "\n";

  const auto reference = rs::synth::paper::figure3_staleness();
  TextTable t({"Derivative", "Avg. versions behind", "Paper", "Always stale?"});
  t.set_align(1, Align::kRight);
  t.set_align(2, Align::kRight);

  std::vector<std::pair<double, std::string>> order;
  std::map<std::string, rs::analysis::StalenessResult> results;
  for (const auto& ref : reference) {
    const auto* h = database().find(ref.provider);
    if (h == nullptr) continue;
    auto res =
        rs::analysis::derivative_staleness(*h, *membership_, index);
    order.emplace_back(res.avg_versions_behind, ref.provider);
    results.emplace(ref.provider, std::move(res));
  }
  std::sort(order.begin(), order.end());
  for (const auto& [avg, provider] : order) {
    double paper_value = 0;
    for (const auto& ref : reference) {
      if (ref.provider == provider) paper_value = ref.versions_behind;
    }
    const auto& res = results.at(provider);
    t.add_row({provider, fmt_double(avg, 2), fmt_double(paper_value, 2),
               res.always_stale ? "yes" : "no"});
  }
  out += t.render();
  out += "(paper ordering: Alpine < Debian/Ubuntu < NodeJS < Android < "
         "AmazonLinux)\n";

  // §6.1 update dynamics: how often each provider actually ships changes.
  out += "\nUpdate cadence:\n";
  TextTable cadence({"Provider", "Snapshots", "Substantial", "No-op",
                     "Median interval (d)", "Substantial/yr"});
  for (std::size_t i = 1; i <= 5; ++i) cadence.set_align(i, Align::kRight);
  for (const char* name : {"NSS", "Alpine", "Debian", "Ubuntu", "NodeJS",
                           "Android", "AmazonLinux"}) {
    const auto* h = database().find(name);
    if (h == nullptr) continue;
    const auto c = rs::analysis::update_cadence(*h, *membership_);
    cadence.add_row({name, std::to_string(c.snapshots),
                     std::to_string(c.substantial_updates),
                     std::to_string(c.noop_updates),
                     fmt_double(c.median_interval_days, 0),
                     fmt_double(c.substantial_per_year, 1)});
  }
  out += cadence.render();
  out += "(paper: no derivative matches NSS's update regularity; some "
         "derivative releases ignore pending NSS updates)\n";
  return out;
}

std::string EcosystemStudy::report_figure4() const {
  rs::obs::Span span("report/fig4");
  const auto* nss = database().find("NSS");
  std::string out = "Figure 4: NSS derivative diffs (added/removed vs matched "
                    "NSS version)\n";
  if (nss == nullptr) return out + "(no NSS history)\n";
  const auto index = rs::analysis::build_version_index(*nss, *membership_);

  for (const auto& name :
       {"Alpine", "AmazonLinux", "Android", "NodeJS", "Debian", "Ubuntu"}) {
    const auto* h = database().find(name);
    if (h == nullptr) continue;
    const auto series =
        rs::analysis::derivative_diffs(*h, *nss, *membership_, index);

    std::array<std::size_t, rs::analysis::kAddCategoryCount> add_totals{};
    std::array<std::size_t, rs::analysis::kRemoveCategoryCount> rm_totals{};
    std::size_t deviating = 0;
    std::size_t peak_added = 0, peak_removed = 0;
    for (const auto& p : series.points) {
      for (std::size_t c = 0; c < p.adds.size(); ++c) add_totals[c] += p.adds[c];
      for (std::size_t c = 0; c < p.removes.size(); ++c) {
        rm_totals[c] += p.removes[c];
      }
      if (p.added_total() + p.removed_total() > 0) ++deviating;
      peak_added = std::max(peak_added, p.added_total());
      peak_removed = std::max(peak_removed, p.removed_total());
    }

    out += "\n" + std::string(name) + ": " +
           std::to_string(series.points.size()) + " snapshots, " +
           std::to_string(deviating) + " deviate from NSS (ever_deviates=" +
           (series.ever_deviates ? "yes" : "no") + ")\n";
    TextTable t({"Category", "Total roots (snapshot-summed)"});
    t.set_align(1, Align::kRight);
    for (std::size_t c = 0; c < add_totals.size(); ++c) {
      t.add_row({std::string("added: ") +
                     rs::analysis::to_string(static_cast<rs::analysis::AddCategory>(c)),
                 std::to_string(add_totals[c])});
    }
    for (std::size_t c = 0; c < rm_totals.size(); ++c) {
      t.add_row({std::string("removed: ") +
                     rs::analysis::to_string(
                         static_cast<rs::analysis::RemoveCategory>(c)),
                 std::to_string(rm_totals[c])});
    }
    t.add_row({"peak added in one snapshot", std::to_string(peak_added)});
    t.add_row({"peak removed in one snapshot", std::to_string(peak_removed)});
    out += t.render();

    // Sparkline of total deviation over time.
    out += "  deviation over time: ";
    for (const auto& p : series.points) {
      const std::size_t mag = p.added_total() + p.removed_total();
      out += mag == 0 ? '.' : (mag < 3 ? '+' : (mag < 10 ? '*' : '#'));
    }
    out += "\n";
  }
  out += "\n(paper: every derivative deviates; Symantec distrust fallout at "
         "2020; Debian/Ubuntu non-NSS roots until 2015; email conflation "
         "until 2017/2020)\n";
  return out;
}

const rs::query::TrustIndex& EcosystemStudy::trust_index() {
  if (!trust_index_) {
    trust_index_ = std::make_shared<const rs::query::TrustIndex>(
        rs::query::TrustIndex::build(database(), *membership_));
  }
  return *trust_index_;
}

namespace {

/// The latest date every covered provider's history still covers — the
/// "common date" the landscape reports anchor their cross-sections on.
rs::util::Date latest_common_date(const rs::query::TrustIndex& index) {
  std::optional<rs::util::Date> d;
  for (const auto& name : index.providers()) {
    const auto cov = index.coverage(name);
    if (!cov) continue;
    if (!d || cov->last < *d) d = cov->last;
  }
  return d.value_or(rs::util::Date{});
}

/// First/last civil years with any coverage, for the yearly grids.
std::pair<int, int> coverage_years(const rs::query::TrustIndex& index) {
  std::optional<rs::util::Date> lo, hi;
  for (const auto& name : index.providers()) {
    const auto cov = index.coverage(name);
    if (!cov) continue;
    if (!lo || cov->first < *lo) lo = cov->first;
    if (!hi || *hi < cov->last) hi = cov->last;
  }
  if (!lo) return {1970, 1970};
  return {lo->year(), hi->year()};
}

/// Sparkline bucket for a count: '.' 0, '+' 1-4, '*' 5-19, '#' 20+.
char count_glyph(std::size_t n) noexcept {
  return n == 0 ? '.' : (n < 5 ? '+' : (n < 20 ? '*' : '#'));
}

}  // namespace

std::string EcosystemStudy::report_agreement() {
  rs::obs::Span span("report/agreement");
  const auto& index = trust_index();
  const rs::util::Date date = latest_common_date(index);
  const auto view = rs::landscape::presence_at(index, date,
                                              rs::query::Scope::kTls);
  const auto summary = rs::landscape::agreement_summary(view.sets);

  std::string out = "Landscape: cross-store agreement at " + date.to_string() +
                    " (TLS scope)\n\n";
  TextTable sizes({"Provider", "Size", "Exclusive"});
  sizes.set_align(1, Align::kRight);
  sizes.set_align(2, Align::kRight);
  for (std::size_t i = 0; i < view.providers.size(); ++i) {
    sizes.add_row({view.providers[i], std::to_string(summary.sizes[i]),
                   std::to_string(summary.exclusive_counts[i])});
  }
  out += sizes.render();
  out += "union=" + std::to_string(summary.union_size) +
         " intersection=" + std::to_string(summary.intersection_size) +
         " global-agreement=" +
         rs::landscape::format_agreement(summary.intersection_size,
                                         summary.union_size) +
         "\n\n";

  // Pairwise Jaccard-agreement matrix (upper triangle; '-' on and below
  // the diagonal).
  std::vector<std::string> header{"Agreement"};
  for (const auto& p : view.providers) header.push_back(p);
  TextTable matrix(header);
  for (std::size_t c = 1; c <= view.providers.size(); ++c) {
    matrix.set_align(c, Align::kRight);
  }
  std::vector<std::vector<std::string>> cells(
      view.providers.size(),
      std::vector<std::string>(view.providers.size(), "-"));
  for (const auto& p : summary.pairs) {
    cells[p.a][p.b] =
        rs::landscape::format_agreement(p.intersection, p.union_size);
  }
  for (std::size_t a = 0; a < view.providers.size(); ++a) {
    std::vector<std::string> row{view.providers[a]};
    for (std::size_t b = 0; b < view.providers.size(); ++b) {
      row.push_back(cells[a][b]);
    }
    matrix.add_row(row);
  }
  out += matrix.render();

  // Yearly series: how the global landscape converged over time.
  const auto [y_first, y_last] = coverage_years(index);
  out += "\nYearly series (Jan 1):\n";
  TextTable series({"Year", "Covered", "Union", "Intersection", "Agreement"});
  for (std::size_t c = 1; c <= 4; ++c) series.set_align(c, Align::kRight);
  for (int y = y_first; y <= y_last; ++y) {
    const auto at = rs::landscape::presence_at(
        index, rs::util::Date::ymd(y, 1, 1), rs::query::Scope::kTls);
    if (at.providers.empty()) continue;
    const auto s = rs::landscape::agreement_summary(at.sets);
    series.add_row({std::to_string(y), std::to_string(at.providers.size()),
                    std::to_string(s.union_size),
                    std::to_string(s.intersection_size),
                    rs::landscape::format_agreement(s.intersection_size,
                                                    s.union_size)});
  }
  out += series.render();
  out += "(paper: stores disagree broadly — no two programs resolve the "
         "same trusted set; derivatives track NSS most closely)\n";
  return out;
}

std::string EcosystemStudy::report_exclusivity() {
  rs::obs::Span span("report/exclusivity");
  const auto& index = trust_index();
  const rs::util::Date date = latest_common_date(index);
  const auto [y_first, y_last] = coverage_years(index);

  std::string out = "Landscape: per-provider exclusive roots (TLS scope)\n\n";

  // At-date exclusives at the latest common date — the cross-sectional
  // companion to Table 6 (which holds latest snapshots against
  // ever-trusted sets; this holds one date against the same date).
  const auto view = rs::landscape::presence_at(index, date,
                                              rs::query::Scope::kTls);
  const auto exclusives = rs::landscape::exclusive_sets(view.sets, view.sets);
  TextTable at_date({"Provider", "Store size", "Exclusive @ " +
                                                   date.to_string()});
  at_date.set_align(1, Align::kRight);
  at_date.set_align(2, Align::kRight);
  for (std::size_t i = 0; i < view.providers.size(); ++i) {
    at_date.add_row({view.providers[i], std::to_string(view.sets[i]->size()),
                     std::to_string(exclusives[i].size())});
  }
  out += at_date.render();
  out += "(Table 6 counts latest-vs-ever exclusives; at-date counts are "
         "higher because other stores' past adoptions don't discount)\n";

  // Yearly exclusive-count series per provider, rendered as counts and a
  // sparkline ('.'=0 '+'=1-4 '*'=5-19 '#'=20+; blank = not covered).
  out += "\nYearly exclusive-root series (Jan 1, " +
         std::to_string(y_first) + "-" + std::to_string(y_last) + "):\n";
  std::vector<std::string> names = index.providers();
  std::map<std::string, std::string> sparks;
  std::map<std::string, std::size_t> totals;
  for (const auto& n : names) sparks[n] = "";
  for (int y = y_first; y <= y_last; ++y) {
    const auto at = rs::landscape::presence_at(
        index, rs::util::Date::ymd(y, 1, 1), rs::query::Scope::kTls);
    const auto ex = rs::landscape::exclusive_sets(at.sets, at.sets);
    std::map<std::string, std::size_t> counts;
    for (std::size_t i = 0; i < at.providers.size(); ++i) {
      counts[at.providers[i]] = ex[i].size();
    }
    for (const auto& n : names) {
      const auto it = counts.find(n);
      if (it == counts.end()) {
        sparks[n] += ' ';
      } else {
        sparks[n] += count_glyph(it->second);
        totals[n] += it->second;
      }
    }
  }
  TextTable series({"Provider", "Exclusive-years (summed)", "Series"});
  series.set_align(1, Align::kRight);
  for (const auto& n : names) {
    series.add_row({n, std::to_string(totals[n]), sparks[n]});
  }
  out += series.render();
  out += "(paper: Apple, Microsoft and Java carry the most roots no other "
         "program trusts)\n";
  return out;
}

std::string EcosystemStudy::report_ct_landscape() {
  rs::obs::Span span("report/ct_landscape");

  // Extend a copy of the scenario database with three synthetic CT logs of
  // distinct temperament: an eager fast-follower, a middling log, and a
  // slow conservative one.  Policies are fixed literals so the report (and
  // its golden) is a pure function of the scenario seed.
  rs::store::StoreDatabase db = database();
  const std::vector<std::string> programs = db.providers();
  struct LogSpec {
    const char* name;
    int lag, jitter;
    double accept, extra, retire;
  };
  const LogSpec specs[] = {
      {"CtLogEager", 45, 30, 0.98, 0.10, 0.02},
      {"CtLogSteady", 150, 90, 0.92, 0.25, 0.10},
      {"CtLogSlow", 330, 120, 0.80, 0.05, 0.20},
  };
  std::vector<std::string> log_names;
  std::vector<rs::synth::CtLogPolicy> policies;
  for (const auto& s : specs) {
    rs::synth::CtLogPolicy policy;
    policy.name = s.name;
    policy.seed = rs::synth::kPaperSeed;
    policy.accept_lag_days = s.lag;
    policy.lag_jitter_days = s.jitter;
    policy.accept_prob = s.accept;
    policy.extra_accept_prob = s.extra;
    policy.retire_prob = s.retire;
    log_names.push_back(policy.name);
    policies.push_back(std::move(policy));
  }
  auto logs = rs::synth::generate_ct_logs(policies, db);
  // The logs only accept certificates the database already holds, so the
  // study's universe still covers everything: reuse its rows and build
  // rows for the three log lanes alone.
  rs::store::MembershipTable table = *membership_;
  std::vector<const rs::store::ProviderHistory*> log_lanes;
  for (const auto& log : logs) log_lanes.push_back(&log);
  table.add(log_lanes, pool());
  for (auto& log : logs) db.add(std::move(log));
  const auto index = rs::query::TrustIndex::build(db, table);
  const rs::util::Date date = latest_common_date(index);
  const auto first_seen =
      rs::landscape::first_seen_tables(index, rs::query::Scope::kTls);

  std::string out =
      "Landscape: synthetic CT-log root acceptance vs program stores\n"
      "(accepted-roots snapshots simulated from the scenario; common date " +
      date.to_string() + ", TLS scope)\n";

  const auto [y_first, y_last] = coverage_years(index);
  for (const auto& log_name : log_names) {
    const auto ct = rs::landscape::ct_coverage_at(
        index, log_name, date, rs::query::Scope::kTls, programs, first_seen);
    if (!ct) continue;

    out += "\n" + log_name + ": " + std::to_string(ct->log.roots->size()) +
           " accepted roots, " + std::to_string(ct->log_exclusive) +
           " log-exclusive\n";
    TextTable t({"Store", "Size", "Covered", "Fraction", "Matched",
                 "Mean lag (d)"});
    for (std::size_t c = 1; c <= 5; ++c) t.set_align(c, Align::kRight);
    for (const auto& row : ct->stores) {
      t.add_row({row.name, std::to_string(row.coverage.store_size),
                 std::to_string(row.coverage.covered),
                 rs::landscape::format_ratio(
                     static_cast<double>(row.coverage.covered),
                     static_cast<double>(row.coverage.store_size), 4),
                 std::to_string(row.lag.matched),
                 row.lag.matched == 0
                     ? std::string("-")
                     : rs::landscape::format_ratio(
                           static_cast<double>(row.lag.total_lag_days),
                           static_cast<double>(row.lag.matched), 1)});
    }
    out += t.render();

    // Yearly sparkline of union coverage: what share of the union of all
    // program stores the log accepts each Jan 1.
    out += "  union coverage over time: ";
    for (int y = y_first; y <= y_last; ++y) {
      const auto d = rs::util::Date::ymd(y, 1, 1);
      const auto lv = index.store_at(log_name, d, rs::query::Scope::kTls);
      if (!lv) {
        out += ' ';
        continue;
      }
      rs::store::IdSet uni;
      for (const auto& p : programs) {
        const auto v = index.store_at(p, d, rs::query::Scope::kTls);
        if (v) uni |= *v->roots;
      }
      if (uni.size() == 0) {
        out += ' ';
        continue;
      }
      const double frac = static_cast<double>(
                              lv->roots->intersection_size(uni)) /
                          static_cast<double>(uni.size());
      out += frac < 0.25 ? '.' : (frac < 0.5 ? '+' : (frac < 0.8 ? '*' : '#'));
    }
    out += "\n";
  }
  out += "\n(logs accept nearly every browser root eventually; lag and "
         "log-exclusive counts separate eager from conservative logs)\n";
  return out;
}

}  // namespace rs::core
