// Observer-visible packet records.
//
// A `PacketRecord` is what tcpdump at the gateway would give an analyst for
// one encrypted packet (paper Fig. 2): timing, addressing, direction, sizes,
// TCP sequence/ack numbers, the QUIC packet number, and the SNI if the packet
// carries a ClientHello. Nothing else from the simulation leaks in. A
// `CaptureTrace` (capture_trace.h) takes and gives back packets as records but
// stores them as columns, so a record exists only while a caller holds one:
// the simulator's tap, the pcap writer, and the tests and their oracles.

#ifndef CSI_SRC_CAPTURE_PACKET_RECORD_H_
#define CSI_SRC_CAPTURE_PACKET_RECORD_H_

#include <cstdint>
#include <string>
#include <tuple>

#include "src/common/units.h"
#include "src/net/packet.h"

namespace csi::capture {

struct PacketRecord {
  TimeUs timestamp = 0;

  uint32_t client_ip = 0;
  uint32_t server_ip = 0;

  // Transport payload bytes (TCP payload / UDP payload).
  uint32_t payload = 0;

  uint32_t tcp_seq = 0;
  uint32_t tcp_ack = 0;
  uint32_t quic_packet_number = 0;

  uint16_t client_port = 0;
  uint16_t server_port = 0;
  bool from_client = false;
  net::Transport transport = net::Transport::kTcp;

  std::string sni;  // non-empty only on a ClientHello

  // Fixed IPv4 + TCP/UDP headers + payload: the pcap `orig_len` of the
  // packet as SerializePcap writes it (no IP or TCP options).
  Bytes wire_size() const {
    return net::kIpHeaderBytes +
           (transport == net::Transport::kTcp ? net::kTcpHeaderBytes : net::kUdpHeaderBytes) +
           payload;
  }
};

static_assert(sizeof(PacketRecord) == 72, "PacketRecord holds each field at its pcap width");

// Connection identity as reconstructible from a capture: the 5-tuple.
struct FlowKey {
  net::Transport transport = net::Transport::kTcp;
  uint32_t client_ip = 0;
  uint32_t server_ip = 0;
  uint16_t client_port = 0;
  uint16_t server_port = 0;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
  friend auto operator<=>(const FlowKey& a, const FlowKey& b) {
    return std::tie(a.transport, a.client_ip, a.server_ip, a.client_port, a.server_port) <=>
           std::tie(b.transport, b.client_ip, b.server_ip, b.client_port, b.server_port);
  }
};

inline FlowKey FlowKeyOf(const PacketRecord& r) {
  return FlowKey{r.transport, r.client_ip, r.server_ip, r.client_port, r.server_port};
}

// Builds the observer-visible record for a packet crossing the gateway at
// `now`. This is the only place simulation packets are projected into
// observable form. Throws std::invalid_argument when the packet's wire size
// (payload plus headers) is negative or above UINT32_MAX, which a pcap's
// `orig_len` cannot carry; the TCP sequence and ack numbers and the QUIC
// packet number are cut to their low 32 bits, as the pcap writer does.
PacketRecord RecordFrom(const net::Packet& packet, TimeUs now);

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_PACKET_RECORD_H_
