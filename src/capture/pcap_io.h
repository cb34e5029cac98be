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
// `ReadPcap` takes the file size from fstat and streams the file with pread
// through one reused window of kPcapWindowBytes, in one pass: each byte is
// read once. Each record's fields go straight into the trace's pcap-width
// columns, and its flow is interned as it is parsed (see capture_trace.h);
// no per-packet record or string is built. The trace is sized from the first
// window, which the magic check loads: the file's bytes over the mean length
// of the complete records it holds (at least the 44 bytes of the smallest
// record the parse accepts), plus 1/64 slack; a capture that outgrows that
// estimate grows the columns as any vector grows, so only speed depends on
// it. The window starts each
// refill at the first record that does not fit, so a record is always parsed
// in one piece; it grows only for a record longer than the window, and only
// after that record's length has been checked against the bytes left in the
// file. `ParsePcap` feeds the same window from memory, so both entry points
// share one framing, sizing and parse loop.
// The reader uses pread, not mmap, so a file truncated while it is read fails
// with an error instead of raising SIGBUS. Every length field is checked
// against the bytes left before anything it covers is read. The IPv4 header
// length (IHL) and the TCP data offset are honoured, so IP and TCP options
// never shift the payload, the SNI or the QUIC fields. Malformed input (bad
// magic or link type, a truncated header or body, a non-IPv4 packet, an IHL
// or TCP data offset below 5 words, an IP protocol other than TCP/UDP, or
// lengths shorter than the headers) throws std::runtime_error; it never reads
// past the input.

#ifndef CSI_SRC_CAPTURE_PCAP_IO_H_
#define CSI_SRC_CAPTURE_PCAP_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/capture/capture_trace.h"

namespace csi::capture {

inline constexpr uint32_t kPcapSnapLen = 256;
// The reader's window: large enough that a refill costs little against the
// records it holds, small enough to stay in L2 beside the parse.
inline constexpr size_t kPcapWindowBytes = 256 * 1024;

// Serializes the trace into pcap bytes. Throws std::invalid_argument for a
// packet whose captured bytes cannot hold its SNI: a TCP payload below 5 B
// plus the SNI, a UDP payload below 15 B plus the SNI, or an SNI that runs
// past the snap length. Written cut short, it would read back without its
// SNI.
std::vector<uint8_t> SerializePcap(const CaptureTrace& trace);

// Parses pcap bytes back into a trace. The client side of each flow is the
// endpoint using the ephemeral (non-443) port. Throws std::runtime_error on
// malformed input.
CaptureTrace ParsePcap(const std::vector<uint8_t>& bytes);

// File convenience wrappers. WritePcap throws as SerializePcap does, and
// std::runtime_error when the file cannot be opened or the write comes up
// short; ReadPcap throws
// "pcap: cannot open <path>" / "pcap: cannot read <path>" when the path is
// missing, is not a regular file, or cannot be read in full (a file that
// shrinks while it is read), and times the read and parse under the
// `pcap_read` stage span.
void WritePcap(const std::string& path, const CaptureTrace& trace);
CaptureTrace ReadPcap(const std::string& path);

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_PCAP_IO_H_
