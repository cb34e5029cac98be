#include "src/capture/pcap_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "src/common/telemetry.h"

namespace csi::capture {
namespace {

constexpr uint32_t kPcapMagic = 0xa1b2c3d4;  // microsecond timestamps
constexpr uint32_t kLinkTypeRaw = 101;       // raw IPv4/IPv6
constexpr uint32_t kIpv4HeaderBytes = 20;    // no options
constexpr uint32_t kTcpHeaderBytes = 20;     // no options
constexpr uint32_t kUdpHeaderBytes = 8;
constexpr uint8_t kIpProtoTcp = 6;
constexpr uint8_t kIpProtoUdp = 17;
constexpr size_t kGlobalHeaderBytes = 24;
constexpr size_t kRecordHeaderBytes = 16;

void Put8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }
void Put16be(std::vector<uint8_t>& out, uint16_t v) {
  out.insert(out.end(), {static_cast<uint8_t>(v >> 8), static_cast<uint8_t>(v)});
}
void Put32be(std::vector<uint8_t>& out, uint32_t v) {
  Put16be(out, static_cast<uint16_t>(v >> 16));
  Put16be(out, static_cast<uint16_t>(v));
}
void Put32le(std::vector<uint8_t>& out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<uint8_t>(v >> shift));
  }
}
void PutSni(std::vector<uint8_t>& out, const std::string& sni) {
  Put16be(out, static_cast<uint16_t>(sni.size()));
  out.insert(out.end(), sni.begin(), sni.end());
}

struct FileCloser {
  int fd;
  ~FileCloser() { ::close(fd); }
};

// Loads from a byte pointer. Callers check the bytes are there first.
uint16_t Load16be(const uint8_t* p) { return static_cast<uint16_t>(p[0] << 8 | p[1]); }
uint32_t Load32be(const uint8_t* p) { return uint32_t{Load16be(p)} << 16 | Load16be(p + 2); }
uint32_t Load32le(const uint8_t* p) {
  return uint32_t{p[3]} << 24 | uint32_t{p[2]} << 16 | uint32_t{p[1]} << 8 | p[0];
}

// The SNI of `len` bytes at `p` when all of them lie before `end`, else "".
std::string_view SniAt(const uint8_t* p, const uint8_t* end, uint16_t len) {
  if (len == 0 || len > end - p) {
    return {};
  }
  return std::string_view(reinterpret_cast<const char*>(p), len);
}

// The pcap bytes seen through one reused buffer that holds bytes
// [base_, base_ + len_) of the source: a file read with pread, or memory
// copied in. The buffer is kPcapWindowBytes long (less for a smaller source)
// and grows only for a single record longer than that.
class Window {
 public:
  Window(const uint8_t* bytes, size_t size) : Window(size) { bytes_ = bytes; }
  Window(int fd, const std::string& path, size_t size) : Window(size) {
    fd_ = fd;
    path_ = &path;
  }

  size_t size() const { return size_; }

  // The bytes the buffer holds: the first window's until the first refill.
  const uint8_t* held() const { return buf_.get(); }
  size_t held_bytes() const { return len_; }

  // The `n` bytes at source offset `at`, which the caller has checked lie
  // before the end of the source; they are loaded first if the buffer does
  // not hold all of them.
  const uint8_t* At(size_t at, size_t n) {
    if (at < base_ || at + n > base_ + len_) {
      Load(at, n);
    }
    return buf_.get() + (at - base_);
  }

 private:
  explicit Window(size_t size)
      : size_(size),
        cap_(std::min(kPcapWindowBytes, size)),
        buf_(std::make_unique_for_overwrite<uint8_t[]>(cap_)) {}

  // Refills the buffer from `at`; a short read (the file shrank after fstat)
  // throws "pcap: cannot read <path>".
  void Load(size_t at, size_t n) {
    if (n > cap_) {
      cap_ = n;
      buf_ = std::make_unique_for_overwrite<uint8_t[]>(cap_);
    }
    base_ = at;
    len_ = std::min(cap_, size_ - at);
    if (fd_ < 0) {
      std::memcpy(buf_.get(), bytes_ + at, len_);
      return;
    }
    for (size_t done = 0; done < len_;) {
      const ssize_t got =
          ::pread(fd_, buf_.get() + done, len_ - done, static_cast<off_t>(at + done));
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        throw std::runtime_error("pcap: cannot read " + *path_);
      }
      done += static_cast<size_t>(got);
    }
  }

  const uint8_t* bytes_ = nullptr;
  int fd_ = -1;
  const std::string* path_ = nullptr;
  size_t size_;
  size_t cap_;
  std::unique_ptr<uint8_t[]> buf_;
  size_t base_ = 0;
  size_t len_ = 0;
};

// The smallest record the parse accepts: a record header, an IPv4 header and
// a UDP header.
constexpr size_t kMinRecordBytes = kRecordHeaderBytes + kIpv4HeaderBytes + kUdpHeaderBytes;

// The record count to reserve: the capture's bytes after the global header
// over the mean length of the complete records in the first window (`held`,
// loaded from offset 0 by the magic check), at least kMinRecordBytes, plus
// 1/64 slack; 0 when that window holds no complete record. Only speed depends
// on it: a capture with more records grows each column as any vector grows.
// The floor bounds the columns at about 0.67x the file whatever the first
// records are; the slack covers the first window's mean straying from the
// whole file's, so that a capture rarely outgrows its estimate.
size_t EstimateRecords(const uint8_t* held, size_t held_bytes, size_t size) {
  size_t records = 0;
  size_t at = kGlobalHeaderBytes;
  while (held_bytes - at >= kRecordHeaderBytes) {
    const size_t length = kRecordHeaderBytes + Load32le(held + at + 8);
    if (length > held_bytes - at) {
      break;
    }
    at += length;
    ++records;
  }
  if (records == 0) {
    return 0;
  }
  // In floating point, so that a huge (sparse) file cannot wrap the product.
  const double sampled =
      static_cast<double>(std::max(at - kGlobalHeaderBytes, records * kMinRecordBytes));
  const auto estimate = static_cast<size_t>(static_cast<double>(size - kGlobalHeaderBytes) *
                                            static_cast<double>(records) / sampled);
  return estimate + estimate / 64;
}

// Parses the pcap bytes behind `window` in one pass. Every length is checked
// against the bytes left in the source before the bytes it covers are asked
// for, and the record's own bounds guard every load inside it.
CaptureTrace Parse(Window& window) {
  const size_t size = window.size();
  if (size < 4 || Load32le(window.At(0, 4)) != kPcapMagic) {
    throw std::runtime_error("pcap: bad magic");
  }
  if (size < kGlobalHeaderBytes) {
    throw std::runtime_error("pcap: truncated");
  }
  if (Load32le(window.At(20, 4)) != kLinkTypeRaw) {
    throw std::runtime_error("pcap: unsupported link type");
  }

  CaptureTrace trace;
  trace.reserve(EstimateRecords(window.held(), window.held_bytes(), size));
  for (size_t at = kGlobalHeaderBytes; at != size;) {
    if (size - at < kRecordHeaderBytes) {
      throw std::runtime_error("pcap: truncated packet header");
    }
    const uint32_t incl_len = Load32le(window.At(at, kRecordHeaderBytes) + 8);
    if (incl_len > size - at - kRecordHeaderBytes) {
      throw std::runtime_error("pcap: truncated packet body");
    }
    // The whole record, header and body, in the window at once.
    const uint8_t* const header = window.At(at, kRecordHeaderBytes + incl_len);
    at += kRecordHeaderBytes + incl_len;
    const uint32_t ts_sec = Load32le(header);
    const uint32_t ts_usec = Load32le(header + 4);
    const uint32_t orig_len = Load32le(header + 12);
    const uint8_t* const pkt = header + kRecordHeaderBytes;
    const uint8_t* const pkt_end = pkt + incl_len;

    // Every record must hold the fixed IPv4 header before any of it is read,
    // and each further header before its fields are (below).
    if (incl_len < kIpv4HeaderBytes) {
      throw std::runtime_error("pcap: packet shorter than its headers");
    }
    if ((pkt[0] >> 4) != 4) {
      throw std::runtime_error("pcap: not IPv4");
    }
    // IHL and the TCP data offset count 32-bit words; options sit between the
    // fixed header and what follows it.
    const uint32_t ip_header = (pkt[0] & 0x0Fu) * 4u;
    if (ip_header < kIpv4HeaderBytes) {
      throw std::runtime_error("pcap: bad IP header length");
    }
    const uint8_t proto = pkt[9];
    if (proto != kIpProtoTcp && proto != kIpProtoUdp) {
      throw std::runtime_error("pcap: unsupported IP protocol");
    }
    const bool is_tcp = proto == kIpProtoTcp;
    uint32_t headers = ip_header + (is_tcp ? kTcpHeaderBytes : kUdpHeaderBytes);
    // A short capture length would read the fixed transport fields out of the
    // next record; a short original length would make the payload negative.
    if (incl_len < headers || orig_len < headers) {
      throw std::runtime_error("pcap: packet shorter than its headers");
    }
    const uint8_t* const l4 = pkt + ip_header;
    if (is_tcp) {
      const uint32_t tcp_header = (l4[12] >> 4) * 4u;
      if (tcp_header < kTcpHeaderBytes) {
        throw std::runtime_error("pcap: bad TCP data offset");
      }
      headers = ip_header + tcp_header;
      if (incl_len < headers || orig_len < headers) {
        throw std::runtime_error("pcap: packet shorter than its headers");
      }
    }
    // Captured bytes past the original length are bytes the packet never had;
    // read as QUIC or TLS fields they would dress up a zero-payload packet.
    if (incl_len > orig_len) {
      throw std::runtime_error("pcap: captured length exceeds original length");
    }
    // Microseconds of a whole second or more would shift the packet later.
    if (ts_usec >= kUsPerSec) {
      throw std::runtime_error("pcap: bad timestamp");
    }
    const uint32_t src_ip = Load32be(pkt + 12);
    const uint32_t dst_ip = Load32be(pkt + 16);
    const uint16_t src_port = Load16be(l4);
    const uint16_t dst_port = Load16be(l4 + 2);

    // Client side = the endpoint on the ephemeral port.
    const bool from_client = dst_port == 443;
    const FlowKey key{is_tcp ? net::Transport::kTcp : net::Transport::kUdp,
                      from_client ? src_ip : dst_ip, from_client ? dst_ip : src_ip,
                      from_client ? src_port : dst_port, from_client ? dst_port : src_port};
    const uint32_t payload = orig_len - headers;
    const uint8_t* const body = pkt + headers;
    uint32_t tcp_seq = 0;
    uint32_t tcp_ack = 0;
    uint32_t quic_packet_number = 0;
    std::string_view sni;
    if (is_tcp) {
      tcp_seq = Load32be(l4 + 4);
      tcp_ack = Load32be(l4 + 8);
      // SNI marker: TLS handshake record.
      if (payload > 0 && pkt_end - body >= 5 && body[0] == 0x16 && body[1] == 0x03 &&
          body[2] == 0x01) {
        sni = SniAt(body + 5, pkt_end, Load16be(body + 3));
      }
    } else if (pkt_end - body >= 13) {
      // QUIC public header: flags, 8-byte CID, 4-byte packet number.
      quic_packet_number = Load32be(body + 9);
      if ((body[0] & 0x80) != 0 && pkt_end - body >= 15) {
        sni = SniAt(body + 15, pkt_end, Load16be(body + 13));
      }
    }
    trace.Append(static_cast<TimeUs>(ts_sec) * kUsPerSec + ts_usec, key, from_client, payload,
                 tcp_seq, tcp_ack, quic_packet_number, sni);
  }
  return trace;
}

}  // namespace

std::vector<uint8_t> SerializePcap(const CaptureTrace& trace) {
  std::vector<uint8_t> out;
  // Global header.
  Put32le(out, kPcapMagic);
  Put32le(out, 0x00040002);    // version 2.4
  Put32le(out, 0);             // thiszone
  Put32le(out, 0);             // sigfigs
  Put32le(out, kPcapSnapLen);  // snaplen
  Put32le(out, kLinkTypeRaw);  // network

  for (const PacketRecord& r : trace) {
    const bool is_tcp = r.transport == net::Transport::kTcp;
    const uint32_t src_ip = r.from_client ? r.client_ip : r.server_ip;
    const uint32_t dst_ip = r.from_client ? r.server_ip : r.client_ip;
    const uint16_t src_port = r.from_client ? r.client_port : r.server_port;
    const uint16_t dst_port = r.from_client ? r.server_port : r.client_port;

    // Build the (possibly truncated) packet body.
    std::vector<uint8_t> pkt;
    const Bytes full_len = r.wire_size();
    // IPv4 header.
    Put16be(pkt, 0x4500);  // version 4, IHL 5, TOS 0
    Put16be(pkt, static_cast<uint16_t>(std::min<Bytes>(full_len, 0xFFFF)));
    Put32be(pkt, 0x4000);  // id 0, DF
    Put8(pkt, 64);         // ttl
    Put8(pkt, is_tcp ? kIpProtoTcp : kIpProtoUdp);
    Put16be(pkt, 0);  // checksum (unverified)
    Put32be(pkt, src_ip);
    Put32be(pkt, dst_ip);
    if (is_tcp) {
      Put16be(pkt, src_port);
      Put16be(pkt, dst_port);
      Put32be(pkt, r.tcp_seq);
      Put32be(pkt, r.tcp_ack);
      Put16be(pkt, 0x5010);  // data offset 5, ACK flag
      Put16be(pkt, 0xFFFF);  // window
      Put32be(pkt, 0);       // checksum, urgent
      if (!r.sni.empty()) {
        // Minimal TLS handshake record exposing the SNI.
        pkt.insert(pkt.end(), {0x16, 0x03, 0x01});
        PutSni(pkt, r.sni);
      }
    } else {
      Put16be(pkt, src_port);
      Put16be(pkt, dst_port);
      Put16be(pkt, static_cast<uint16_t>(std::min<Bytes>(full_len - kIpv4HeaderBytes, 0xFFFF)));
      Put16be(pkt, 0);  // checksum
      // QUIC public header: flags + 8-byte CID + 4-byte packet number.
      Put8(pkt, r.sni.empty() ? 0x40 : 0xC0);
      pkt.insert(pkt.end(), 8, 0);
      Put32be(pkt, r.quic_packet_number);
      if (!r.sni.empty()) {
        PutSni(pkt, r.sni);
      }
    }
    // Zero-fill the rest of the payload up to the snap length, or cut there.
    // A cut may not reach into the SNI: the packet would read back without
    // it.
    const size_t captured = static_cast<size_t>(std::min<Bytes>(full_len, kPcapSnapLen));
    if (!r.sni.empty() && pkt.size() > captured) {
      throw std::invalid_argument("pcap: SNI of " + std::to_string(r.sni.size()) +
                                  " B does not fit in the captured bytes of a " +
                                  std::to_string(r.payload) + "-B payload");
    }
    pkt.resize(captured, 0);

    // Per-packet header.
    Put32le(out, static_cast<uint32_t>(r.timestamp / kUsPerSec));
    Put32le(out, static_cast<uint32_t>(r.timestamp % kUsPerSec));
    Put32le(out, static_cast<uint32_t>(pkt.size()));
    Put32le(out, static_cast<uint32_t>(full_len));
    out.insert(out.end(), pkt.begin(), pkt.end());
  }
  return out;
}

CaptureTrace ParsePcap(const std::vector<uint8_t>& bytes) {
  Window window(bytes.data(), bytes.size());
  return Parse(window);
}

void WritePcap(const std::string& path, const CaptureTrace& trace) {
  const std::vector<uint8_t> bytes = SerializePcap(trace);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("pcap: cannot open " + path + " for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out) {
    throw std::runtime_error("pcap: cannot write " + path);
  }
}

CaptureTrace ReadPcap(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("pcap: cannot open " + path);
  }
  const FileCloser closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw std::runtime_error("pcap: cannot read " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  CSI_SPAN("pcap_read", {"bytes", static_cast<int64_t>(size)});
  Window window(fd, path, size);
  CaptureTrace trace = Parse(window);
  CSI_COUNTER_ADD("csi_pcap_packets_read_total", trace.size());
  return trace;
}

}  // namespace csi::capture
