#include "src/capture/capture_trace.h"

#include <algorithm>

namespace csi::capture {
namespace {

template <typename T>
size_t CapacityBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace

void CaptureTrace::reserve(size_t packets) {
  ts_.reserve(packets);
  payload_.reserve(packets);
  seq_.reserve(packets);
  ack_.reserve(packets);
  pn_.reserve(packets);
  flow_.reserve(packets);
  flags_.reserve(packets);
}

void CaptureTrace::push_back(const PacketRecord& r) {
  Append(r.timestamp, FlowKeyOf(r), r.from_client, r.payload, r.tcp_seq, r.tcp_ack,
         r.quic_packet_number, r.sni);
}

void CaptureTrace::Append(TimeUs timestamp, const FlowKey& key, bool from_client,
                          uint32_t payload, uint32_t tcp_seq, uint32_t tcp_ack,
                          uint32_t quic_packet_number, std::string_view sni) {
  uint32_t f = flow_.empty() ? 0 : flow_.back();
  if (flow_.empty() || key != flow_keys_[f]) {
    const auto [it, inserted] =
        flow_index_.try_emplace(key, static_cast<uint32_t>(flow_keys_.size()));
    if (inserted) {
      flow_keys_.push_back(key);
      flow_packets_.push_back(0);
      flow_data_packets_.push_back(0);
      flow_downlink_.push_back(0);
    }
    f = it->second;
    ++runs_;
  }
  ++flow_packets_[f];
  flow_data_packets_[f] += payload != 0 ? 1 : 0;
  uint8_t flags = 0;
  if (from_client) {
    flags |= kFromClient;
  } else {
    flow_downlink_[f] += payload;
  }
  if (!sni.empty()) {
    flags |= kCarriesSni;
    snis_.push_back(Sni{ts_.size(), std::string(sni)});
  }
  ts_.push_back(timestamp);
  payload_.push_back(payload);
  seq_.push_back(tcp_seq);
  ack_.push_back(tcp_ack);
  pn_.push_back(quic_packet_number);
  flow_.push_back(f);
  flags_.push_back(flags);
}

const PacketRecord CaptureTrace::operator[](size_t i) const {
  const FlowKey& key = flow_keys_[flow_[i]];
  PacketRecord r;
  r.timestamp = ts_[i];
  r.client_ip = key.client_ip;
  r.server_ip = key.server_ip;
  r.payload = payload_[i];
  r.tcp_seq = seq_[i];
  r.tcp_ack = ack_[i];
  r.quic_packet_number = pn_[i];
  r.client_port = key.client_port;
  r.server_port = key.server_port;
  r.from_client = (flags_[i] & kFromClient) != 0;
  r.transport = key.transport;
  if ((flags_[i] & kCarriesSni) != 0) {
    r.sni = std::lower_bound(snis_.begin(), snis_.end(), i,
                             [](const Sni& s, size_t packet) { return s.packet < packet; })
                ->name;
  }
  return r;
}

size_t CaptureTrace::held_bytes() const {
  return CapacityBytes(ts_) + CapacityBytes(payload_) + CapacityBytes(seq_) +
         CapacityBytes(ack_) + CapacityBytes(pn_) + CapacityBytes(flow_) +
         CapacityBytes(flags_) + CapacityBytes(flow_keys_) + CapacityBytes(flow_packets_) +
         CapacityBytes(flow_data_packets_) + CapacityBytes(flow_downlink_) +
         CapacityBytes(snis_);
}

}  // namespace csi::capture
