#include "src/capture/capture.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace csi::capture {

PacketRecord RecordFrom(const net::Packet& packet, TimeUs now) {
  const Bytes wire_size = packet.WireSize();
  if (packet.payload < 0 || wire_size > Bytes{UINT32_MAX}) {
    throw std::invalid_argument("capture: packet payload " + std::to_string(packet.payload) +
                                " is outside what a pcap's 32-bit orig_len carries");
  }
  PacketRecord r;
  r.timestamp = now;
  r.from_client = packet.from_client;
  r.transport = packet.transport;
  r.client_ip = packet.client_ip;
  r.server_ip = packet.server_ip;
  r.client_port = packet.client_port;
  r.server_port = packet.server_port;
  r.payload = static_cast<uint32_t>(packet.payload);
  r.tcp_seq = static_cast<uint32_t>(packet.tcp_seq);
  r.tcp_ack = static_cast<uint32_t>(packet.tcp_ack);
  r.quic_packet_number = static_cast<uint32_t>(packet.quic_packet_number);
  r.sni = packet.sni;
  return r;
}

net::PacketSink GatewayTap::Tap(net::PacketSink next) {
  return [this, next = std::move(next)](const net::Packet& packet) {
    trace_.push_back(RecordFrom(packet, sim_->Now()));
    if (next) {
      next(packet);
    }
  };
}

}  // namespace csi::capture
