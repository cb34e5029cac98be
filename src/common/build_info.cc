#include "src/common/build_info.h"

namespace csi {

telemetry::Labels BuildInfoLabels() {
  return {
      // Mirrors capture::kPacketLayoutVersion (packet_columns.h); duplicated
      // here so csi_common does not depend on csi_capture.
      {"packet_layout", "soa-v4"},
  };
}

void RecordBuildInfoMetric() {
  telemetry::MetricsRegistry::Global()
      .GetGauge("csi_build_info", BuildInfoLabels())
      ->Set(1.0);
}

}  // namespace csi
