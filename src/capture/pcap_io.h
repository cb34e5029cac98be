// pcap import/export for capture traces.
//
// `WritePcap` serializes a `CaptureTrace` as a classic libpcap file
// (LINKTYPE_RAW, IPv4), synthesizing IP/TCP/UDP headers and just enough
// payload structure — a TLS record header with the SNI for ClientHellos, and
// a QUIC-style public header carrying the packet number — that `ReadPcap`
// (or external tools like tcpdump/wireshark) can recover every field a real
// capture would expose. Packets are truncated at a tcpdump-style snap length;
// the original length is preserved in the per-packet header, exactly like a
// `tcpdump -s 256` capture of encrypted traffic.
//
// `ReadPcap` takes the file size from fstat and reads the whole file with one
// sized read, then parses it in place with bounds-checked loads: every length
// field is checked against the bytes left before anything it covers is read,
// and a first pass over the record headers sizes the trace once. Malformed
// input (bad magic or link type, a truncated header or body, a non-IPv4
// packet, an IP protocol other than TCP/UDP, or lengths shorter than the
// headers) throws std::runtime_error; it never reads past the buffer.

#ifndef CSI_SRC_CAPTURE_PCAP_IO_H_
#define CSI_SRC_CAPTURE_PCAP_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/capture/packet_record.h"

namespace csi::capture {

inline constexpr uint32_t kPcapSnapLen = 256;

// Serializes the trace into pcap bytes.
std::vector<uint8_t> SerializePcap(const CaptureTrace& trace);

// Parses pcap bytes back into a trace. The client side of each flow is the
// endpoint using the ephemeral (non-443) port. Throws std::runtime_error on
// malformed input.
CaptureTrace ParsePcap(const std::vector<uint8_t>& bytes);

// File convenience wrappers. WritePcap throws std::runtime_error when the file
// cannot be opened or the write comes up short; ReadPcap throws
// "pcap: cannot open <path>" / "pcap: cannot read <path>" when the path is
// missing, is not a regular file, or cannot be read in full, and times the
// read and parse under the `pcap_read` stage span.
void WritePcap(const std::string& path, const CaptureTrace& trace);
CaptureTrace ReadPcap(const std::string& path);

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_PCAP_IO_H_
