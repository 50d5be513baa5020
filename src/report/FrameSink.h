//===- report/FrameSink.h - Races as wire frames ----------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's race reporter: a RaceSink that renders each report
/// with the ordinary NdjsonSink (so wire race lines are byte-identical to
/// st-analyze --format=ndjson output) and ships every line as one RACE
/// frame. NdjsonSink hands each line to its ByteSink in one write, so the
/// line goes straight from its buffer into the frame: constant memory per
/// connection, and the same symbol-snapshot discipline as the NDJSON
/// sink, so framed symbolic output is safe at engine quiet points.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_REPORT_FRAMESINK_H
#define SMARTTRACK_REPORT_FRAMESINK_H

#include "report/RaceSink.h"
#include "serve/Frame.h"

#include <string>
#include <string_view>
#include <vector>

namespace st {

/// RaceSink framing each NDJSON race line as a RACE frame on a shared
/// FrameWriter. Write failures latch (ok() goes false, later reports are
/// dropped) so a hung-up client cannot wedge the analysis loop.
class FrameSink : public RaceSink {
public:
  explicit FrameSink(FrameWriter &Frames) : Lines(Frames), Json(Lines) {}

  /// See NdjsonSink::setSymbols / refreshSymbols / setMaxRacesPerAnalysis.
  void setSymbols(const std::vector<std::string> *Threads,
                  const std::vector<std::string> *Vars) {
    Json.setSymbols(Threads, Vars);
  }
  void refreshSymbols() { Json.refreshSymbols(); }
  void setMaxRacesPerAnalysis(size_t N) { Json.setMaxRacesPerAnalysis(N); }

  void onRace(const RaceReport &R) override { Json.onRace(R); }

  /// False after any frame write failure.
  bool ok() const { return Json.ok() && Lines.Frames.ok(); }

private:
  /// Ships each write (one race line) as one RACE frame.
  struct RaceFrames : ByteSink {
    explicit RaceFrames(FrameWriter &Frames) : Frames(Frames) {}
    bool write(const char *Buf, size_t N) override {
      return Frames.write(FrameType::Race, std::string_view(Buf, N));
    }
    FrameWriter &Frames;
  };

  RaceFrames Lines;
  NdjsonSink Json;
};

} // namespace st

#endif // SMARTTRACK_REPORT_FRAMESINK_H
