//===- analysis/AnalysisRegistry.cpp - Analysis factory -------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"

#include "analysis/FT2.h"
#include "analysis/FTOCore.h"
#include "analysis/FTOHB.h"
#include "analysis/STCore.h"
#include "analysis/UnoptDC.h"
#include "analysis/UnoptHB.h"
#include "analysis/UnoptWCP.h"

#include <cassert>
#include <cstring>

using namespace st;

RelationKind st::relationOf(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::UnoptHB:
  case AnalysisKind::FT2:
  case AnalysisKind::FTOHB:
    return RelationKind::HB;
  case AnalysisKind::UnoptWCP:
  case AnalysisKind::FTOWCP:
  case AnalysisKind::STWCP:
    return RelationKind::WCP;
  case AnalysisKind::UnoptDC:
  case AnalysisKind::UnoptDCwG:
  case AnalysisKind::FTODC:
  case AnalysisKind::STDC:
    return RelationKind::DC;
  case AnalysisKind::UnoptWDC:
  case AnalysisKind::UnoptWDCwG:
  case AnalysisKind::FTOWDC:
  case AnalysisKind::STWDC:
    return RelationKind::WDC;
  }
  assert(false && "unknown analysis kind");
  return RelationKind::HB;
}

const char *st::analysisKindName(AnalysisKind K) {
  switch (K) {
  case AnalysisKind::UnoptHB:
    return "Unopt-HB";
  case AnalysisKind::FT2:
    return "FT2";
  case AnalysisKind::FTOHB:
    return "FTO-HB";
  case AnalysisKind::UnoptWCP:
    return "Unopt-WCP";
  case AnalysisKind::FTOWCP:
    return "FTO-WCP";
  case AnalysisKind::STWCP:
    return "ST-WCP";
  case AnalysisKind::UnoptDC:
    return "Unopt-DC";
  case AnalysisKind::UnoptDCwG:
    return "Unopt-DC w/G";
  case AnalysisKind::FTODC:
    return "FTO-DC";
  case AnalysisKind::STDC:
    return "ST-DC";
  case AnalysisKind::UnoptWDC:
    return "Unopt-WDC";
  case AnalysisKind::UnoptWDCwG:
    return "Unopt-WDC w/G";
  case AnalysisKind::FTOWDC:
    return "FTO-WDC";
  case AnalysisKind::STWDC:
    return "ST-WDC";
  }
  assert(false && "unknown analysis kind");
  return "?";
}

bool st::findAnalysisKind(const char *Name, AnalysisKind &Out) {
  for (AnalysisKind K : allAnalysisKinds())
    if (std::strcmp(analysisKindName(K), Name) == 0) {
      Out = K;
      return true;
    }
  return false;
}

bool st::buildsGraph(AnalysisKind K) {
  return K == AnalysisKind::UnoptDCwG || K == AnalysisKind::UnoptWDCwG;
}

std::unique_ptr<Analysis> st::createAnalysis(AnalysisKind K,
                                             EdgeRecorder *Graph) {
  assert((!buildsGraph(K) || Graph) && "w/G analysis needs an EdgeRecorder");
  switch (K) {
  case AnalysisKind::UnoptHB:
    return std::make_unique<UnoptHB>();
  case AnalysisKind::FT2:
    return std::make_unique<FT2>();
  case AnalysisKind::FTOHB:
    return std::make_unique<FTOHB>();
  case AnalysisKind::UnoptWCP:
    return std::make_unique<UnoptWCP>();
  case AnalysisKind::UnoptDC:
    return std::make_unique<UnoptDC>(UnoptDC::Options{true, nullptr});
  case AnalysisKind::UnoptDCwG:
    return std::make_unique<UnoptDC>(UnoptDC::Options{true, Graph});
  case AnalysisKind::UnoptWDC:
    return std::make_unique<UnoptDC>(UnoptDC::Options{false, nullptr});
  case AnalysisKind::UnoptWDCwG:
    return std::make_unique<UnoptDC>(UnoptDC::Options{false, Graph});
  // The FTO and ST tiers are policy instantiations of one core each
  // (analysis/RelationPolicy.h): the relation differences live in
  // WCPPolicy/DCPolicy/WDCPolicy, not in per-relation classes.
  case AnalysisKind::FTOWCP:
    return std::make_unique<FTOCore<WCPPolicy>>();
  case AnalysisKind::FTODC:
    return std::make_unique<FTOCore<DCPolicy>>();
  case AnalysisKind::FTOWDC:
    return std::make_unique<FTOCore<WDCPolicy>>();
  case AnalysisKind::STWCP:
    return std::make_unique<STCore<WCPPolicy>>();
  case AnalysisKind::STDC:
    return std::make_unique<STCore<DCPolicy>>();
  case AnalysisKind::STWDC:
    return std::make_unique<STCore<WDCPolicy>>();
  }
  assert(false && "analysis kind not yet registered");
  return nullptr;
}

const std::vector<AnalysisKind> &st::allAnalysisKinds() {
  static const std::vector<AnalysisKind> Kinds = {
      AnalysisKind::UnoptHB,    AnalysisKind::FT2,
      AnalysisKind::FTOHB,      AnalysisKind::UnoptWCP,
      AnalysisKind::FTOWCP,     AnalysisKind::STWCP,
      AnalysisKind::UnoptDC,    AnalysisKind::UnoptDCwG,
      AnalysisKind::FTODC,      AnalysisKind::STDC,
      AnalysisKind::UnoptWDC,   AnalysisKind::UnoptWDCwG,
      AnalysisKind::FTOWDC,     AnalysisKind::STWDC,
  };
  return Kinds;
}

const std::vector<AnalysisKind> &st::mainTableAnalysisKinds() {
  // The 11 analyses of Tables 4-6: the Unopt-/FTO-/ST- grid over the four
  // relations, with FT2 appearing only in the baseline comparison (Table 3).
  static const std::vector<AnalysisKind> Kinds = {
      AnalysisKind::UnoptHB,  AnalysisKind::FTOHB,  AnalysisKind::UnoptWCP,
      AnalysisKind::FTOWCP,   AnalysisKind::STWCP,  AnalysisKind::UnoptDC,
      AnalysisKind::FTODC,    AnalysisKind::STDC,   AnalysisKind::UnoptWDC,
      AnalysisKind::FTOWDC,   AnalysisKind::STWDC,
  };
  return Kinds;
}
