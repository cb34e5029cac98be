#include "src/csi/flow_classifier.h"

namespace csi::infer {
namespace {

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// The paper §5.3.1 rule: SNI suffix match, or known server IP when the flow
// never showed an SNI.
bool IsMediaFlow(const std::string& sni, uint32_t server_ip,
                 const std::string& host_suffix,
                 const std::set<uint32_t>& known_server_ips) {
  const bool sni_match = !sni.empty() && HasSuffix(sni, host_suffix);
  const bool ip_match = sni.empty() && known_server_ips.count(server_ip) > 0;
  return sni_match || ip_match;
}

}  // namespace

std::vector<uint32_t> ClassifyMediaFlowIds(
    const capture::PacketColumns& columns, const std::string& host_suffix,
    const std::set<uint32_t>& known_server_ips) {
  std::vector<uint32_t> media;
  for (uint32_t f = 0; f < columns.flow_count(); ++f) {
    if (IsMediaFlow(columns.flow_sni(f), columns.flow_key(f).server_ip,
                    host_suffix, known_server_ips)) {
      media.push_back(f);
    }
  }
  return media;
}

}  // namespace csi::infer
