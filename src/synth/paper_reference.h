// Published reference values from the paper's tables and figures.
//
// Every benchmark harness prints "paper" next to "measured"; this module is
// the single home of the published numbers so they are never re-typed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/util/date.h"

namespace rs::synth::paper {

/// A Table 2 row (the dataset summary).
struct DatasetRow {
  std::string provider;
  rs::util::Date from;
  rs::util::Date to;
  int snapshots = 0;       // "# SS"
  int unique_stores = 0;   // "# Uniq"
  std::string data_source;
  std::string details;
};
std::vector<DatasetRow> table2_dataset();

/// A Table 3 row (root store hygiene).
struct HygieneRow {
  std::string program;
  double avg_size = 0;
  double avg_expired = 0;
  /// Year-month of the MD5 / 1024-bit purges ("2016-09").
  std::string md5_removed;
  std::string rsa1024_removed;
};
std::vector<HygieneRow> table3_hygiene();

/// Figure 2 root-program shares of the top-200 UAs (fractions of 200).
struct ProgramShare {
  std::string program;
  double share = 0;  // e.g. 0.34
};
std::vector<ProgramShare> figure2_shares();

/// Figure 3 average substantial-version staleness per derivative.
struct StalenessRow {
  std::string provider;
  double versions_behind = 0;
};
std::vector<StalenessRow> figure3_staleness();

/// Table 6 exclusive-root counts per program.
struct ExclusiveRow {
  std::string program;
  int exclusive_roots = 0;
};
std::vector<ExclusiveRow> table6_counts();

}  // namespace rs::synth::paper
