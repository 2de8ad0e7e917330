// CSV exports of the figure data series.
//
// `rootstore report <name>` prints human-readable tables; these functions
// emit the data behind them as CSV so the figures can be re-plotted with
// external tooling (matplotlib, gnuplot, R).  `rootstore report fig1
// --csv` (and fig3, fig4, churn) writes them.  Each reads the study's
// membership table, the one its reports read.
#pragma once

#include <string>

#include "src/core/study.h"

namespace rs::core {

/// Figure 1: one row per embedded snapshot —
/// provider,family,date,version,x,y,cluster.  The default cap is the
/// report's, so the CSV holds the points `report fig1` embeds.
std::string figure1_csv(
    const EcosystemStudy& study,
    std::size_t max_per_provider = kFigure1MaxPerProvider);

/// Figure 3: one row per derivative sample —
/// provider,date,matched_version,current_version,versions_behind
std::string figure3_csv(const EcosystemStudy& study);

/// Figure 4: one row per derivative snapshot —
/// provider,date,matched_version,add_* and remove_* category counts
std::string figure4_csv(const EcosystemStudy& study);

/// §4 churn: one row per snapshot —
/// provider,date,added,removed,change_fraction,is_outlier
std::string churn_csv(const EcosystemStudy& study);

}  // namespace rs::core
