// Build provenance for metrics artifacts: the capture column layout. Exported
// as the conventional `csi_build_info` gauge (constant value 1, facts in
// labels) so every METRICS_*.json / .prom snapshot records how it was
// produced.

#ifndef CSI_SRC_COMMON_BUILD_INFO_H_
#define CSI_SRC_COMMON_BUILD_INFO_H_

#include "src/common/telemetry.h"

namespace csi {

// Label set describing this binary:
//   packet_layout         the capture column layout version
telemetry::Labels BuildInfoLabels();

// Registers/updates `csi_build_info{...} 1` in the global registry. Called by
// the tools' metrics-snapshot path; idempotent.
void RecordBuildInfoMetric();

}  // namespace csi

#endif  // CSI_SRC_COMMON_BUILD_INFO_H_
