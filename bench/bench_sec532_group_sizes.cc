// §5.3.2 validation: the SP1/SP2 traffic splitting keeps SQ groups small.
// The paper reports that 99.7% of groups contain at most 10 requests across
// YouTube sessions with various bandwidth profiles.

#include <cstdio>
#include <map>

#include "src/capture/packet_columns.h"
#include "src/common/table.h"
#include "src/csi/flow_classifier.h"
#include "src/csi/splitter.h"
#include "src/testbed/experiment.h"

using namespace csi;

int main() {
  const TimeUs duration = 10 * 60 * kUsPerSec;
  Rng trace_rng(0x532);
  const auto traces = nettrace::CellularTraceLibrary(8, duration, trace_rng);

  std::map<int, int> histogram;
  int total_groups = 0;
  int at_most_10 = 0;
  uint64_t seed = 10;
  for (int v = 0; v < 3; ++v) {
    const media::Manifest manifest =
        testbed::MakeAssetForDesign(infer::DesignType::kSQ, v, duration);
    for (const auto& trace : traces) {
      testbed::SessionConfig session;
      session.design = infer::DesignType::kSQ;
      session.manifest = &manifest;
      session.downlink = trace;
      session.duration = duration;
      session.seed = ++seed;
      const auto result = RunStreamingSession(session);
      const capture::PacketColumns columns = capture::PacketColumns::Build(result.capture);
      const auto media = infer::ClassifyMediaFlowIds(columns, "cdn.example");
      if (media.empty()) {
        continue;
      }
      for (const auto& group : infer::SplitIntoGroups(columns.flow(media[0]))) {
        ++histogram[std::min(group.num_requests(), 16)];
        ++total_groups;
        if (group.num_requests() <= 10) {
          ++at_most_10;
        }
      }
    }
  }

  std::printf("§5.3.2 — SQ traffic-group sizes after SP1/SP2 splitting\n\n");
  TextTable table;
  table.SetHeader({"requests/group", "count", "fraction %"});
  for (const auto& [size, count] : histogram) {
    table.AddRow({size >= 16 ? ">=16" : std::to_string(size), std::to_string(count),
                  FormatDouble(100.0 * count / total_groups, 2)});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("groups <= 10 requests: %.2f%%   (paper: 99.7%%)\n",
              100.0 * at_most_10 / std::max(total_groups, 1));
  return 0;
}
