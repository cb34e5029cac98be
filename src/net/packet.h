// The simulated on-the-wire packet.
//
// A `Packet` carries exactly the information a passive observer of encrypted
// traffic can see (paper Fig. 2): IP/port addressing, direction, sizes, the
// TCP sequence number (HTTPS), the QUIC packet number region (sizes only —
// payload is encrypted), and the SNI on the ClientHello. Application payload
// is never materialized; messages are modeled as byte counts.

#ifndef CSI_SRC_NET_PACKET_H_
#define CSI_SRC_NET_PACKET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace csi::net {

enum class Transport : uint8_t { kTcp, kUdp };

// Header sizes used for wire accounting.
inline constexpr Bytes kIpHeaderBytes = 20;
inline constexpr Bytes kTcpHeaderBytes = 20;
inline constexpr Bytes kUdpHeaderBytes = 8;
// Short-header QUIC public header: flags (1) + connection id (8) + packet
// number (4).
inline constexpr Bytes kQuicHeaderBytes = 13;
// TCP maximum segment size (payload bytes per segment).
inline constexpr Bytes kTcpMss = 1448;
// Maximum QUIC packet payload (post-header), mirroring Cronet defaults.
inline constexpr Bytes kQuicMaxPayload = 1350;

struct Packet {
  // Identity of the connection this packet belongs to (simulator-level; the
  // observable equivalent is the 5-tuple below).
  uint64_t flow_id = 0;
  bool from_client = false;
  Transport transport = Transport::kTcp;

  uint32_t client_ip = 0;
  uint32_t server_ip = 0;
  uint16_t client_port = 0;
  uint16_t server_port = 443;

  // Transport payload carried by this packet (TCP payload bytes / UDP payload
  // bytes). Zero for pure ACKs.
  Bytes payload = 0;

  // TCP-only: sequence number of the packet's first payload byte. A
  // retransmission reuses the original sequence number.
  uint64_t tcp_seq = 0;
  // TCP-only: cumulative acknowledgment carried by this packet (every TCP
  // packet carries one; a "pure ACK" is a packet with payload == 0).
  uint64_t tcp_ack = 0;

  // QUIC-only: monotonically increasing packet number; retransmitted data is
  // carried under a *new* packet number (paper §2).
  uint64_t quic_packet_number = 0;

  // Non-empty on the TLS/QUIC ClientHello: the Server Name Indication.
  std::string sni;

  // --- Simulation-internal semantics (encrypted on a real wire; the capture
  // module never copies these into observer-visible records) ---

  // TCP SACK blocks: received byte ranges above the cumulative ack (real
  // stacks carry these in TCP options; we model the semantics only).
  std::vector<std::pair<uint64_t, uint64_t>> sim_tcp_sack;

  // QUIC STREAM frames carried by this packet.
  struct QuicFrame {
    uint64_t stream_id = 0;
    uint64_t offset = 0;
    Bytes len = 0;
  };
  std::vector<QuicFrame> sim_quic_frames;
  // QUIC ACK frame contents: packet numbers newly acknowledged.
  std::vector<uint64_t> sim_quic_acks;

  // Debug-only ground truth (never read by the CSI inference): true if this
  // packet repeats previously transmitted data.
  bool debug_is_retransmission = false;

  Bytes WireSize() const {
    const Bytes transport_header =
        transport == Transport::kTcp ? kTcpHeaderBytes : kUdpHeaderBytes;
    return kIpHeaderBytes + transport_header + payload;
  }
};

// Receiving end of a packet hop.
using PacketSink = std::function<void(const Packet&)>;

}  // namespace csi::net

#endif  // CSI_SRC_NET_PACKET_H_
