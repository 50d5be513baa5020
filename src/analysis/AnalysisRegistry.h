//===- analysis/AnalysisRegistry.h - Analysis factory -----------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Central factory for the paper's analysis grid (Table 1): four relations
/// (HB, WCP, DC, WDC) times the optimization levels (Unopt with/without
/// constraint graph, FT2, FTO, SmartTrack). The benches, tests, and
/// examples construct analyses exclusively through this registry.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_ANALYSISREGISTRY_H
#define SMARTTRACK_ANALYSIS_ANALYSISREGISTRY_H

#include "analysis/Analysis.h"

#include <memory>
#include <vector>

namespace st {

class EdgeRecorder;

/// Which partial order an analysis computes.
enum class RelationKind : uint8_t { HB, WCP, DC, WDC };

/// Every runnable analysis configuration from Table 1.
enum class AnalysisKind : uint8_t {
  UnoptHB,
  FT2,
  FTOHB,
  UnoptWCP,
  FTOWCP,
  STWCP,
  UnoptDC,
  UnoptDCwG,
  FTODC,
  STDC,
  UnoptWDC,
  UnoptWDCwG,
  FTOWDC,
  STWDC,
};

/// Relation computed by \p K.
RelationKind relationOf(AnalysisKind K);

/// Table-style short name ("ST-DC", "Unopt-WDC w/G", ...).
const char *analysisKindName(AnalysisKind K);

/// Reverse lookup of analysisKindName; returns false when \p Name names
/// no registered analysis. The CLIs resolve --analysis= through this.
bool findAnalysisKind(const char *Name, AnalysisKind &Out);

/// True for the configurations that record a constraint graph.
bool buildsGraph(AnalysisKind K);

/// Creates an analysis instance. For graph-building kinds, \p Graph
/// receives the recorded edges and must outlive the analysis; it may be
/// null for non-graph kinds.
std::unique_ptr<Analysis> createAnalysis(AnalysisKind K,
                                         EdgeRecorder *Graph = nullptr);

/// All analysis kinds in Table 1 order.
const std::vector<AnalysisKind> &allAnalysisKinds();

/// The eleven kinds evaluated in Tables 4-7 (no w/G configurations).
const std::vector<AnalysisKind> &mainTableAnalysisKinds();

} // namespace st

#endif // SMARTTRACK_ANALYSIS_ANALYSISREGISTRY_H
