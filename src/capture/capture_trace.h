// A capture session as capture-order columns at pcap width.
//
// A `CaptureTrace` holds, per packet and in capture order:
//
//   - an int64 timestamp (microseconds: a pcap's 32-bit seconds times 10^6
//     do not fit in 32 bits);
//   - uint32 payload, TCP sequence, TCP ack and QUIC packet number columns,
//     each as wide as its pcap field;
//   - a uint32 flow id, an index into the flow table;
//   - a flags byte with the same kFromClient / kCarriesSni bits that
//     `PacketColumns` uses.
//
// That is 29 bytes per packet. Beside the columns it keeps a flow table (the
// 5-tuple of each flow in first-appearance order, with its packet count, its
// count of packets that carry payload and its downlink byte total) and, for
// each packet that carries an SNI, the packet's index and the SNI string. No
// per-packet string and no per-packet record is stored. Flows are interned as
// packets are appended: a packet of the previous packet's flow skips the map.
// `PacketColumns::Build` reads the flow table and copies the columns it needs
// (or, when some packets carry no payload or the flows interleave, moves the
// payload-carrying packets run by run); it reads no record and looks up no
// map.
//
// The record API is by value: `push_back` takes a `PacketRecord`, and
// `operator[]` and const iteration give one back, assembled from the columns,
// the flow table and the SNI list. A stored packet is not edited in place;
// to change one, edit a `std::vector<PacketRecord>` and build the trace from
// it.

#ifndef CSI_SRC_CAPTURE_CAPTURE_TRACE_H_
#define CSI_SRC_CAPTURE_CAPTURE_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/capture/packet_record.h"

namespace csi::capture {

// Bits of a flags column (here and in PacketColumns).
inline constexpr uint8_t kFromClient = 1;  // the packet goes client→server
inline constexpr uint8_t kCarriesSni = 2;  // the packet carries an SNI

class CaptureTrace {
 public:
  // The SNI of one packet that carries one.
  struct Sni {
    size_t packet = 0;  // capture-order index
    std::string name;
  };

  // A forward iterator whose elements are records built on access.
  class const_iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = PacketRecord;
    using difference_type = std::ptrdiff_t;
    using reference = const PacketRecord;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const CaptureTrace* trace, size_t i) : trace_(trace), i_(i) {}

    const PacketRecord operator*() const { return (*trace_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    const CaptureTrace* trace_ = nullptr;
    size_t i_ = 0;
  };

  CaptureTrace() = default;
  CaptureTrace(std::initializer_list<PacketRecord> records)
      : CaptureTrace(records.begin(), records.end()) {}
  template <std::input_iterator It>
  CaptureTrace(It first, It last) {
    for (; first != last; ++first) {
      push_back(*first);
    }
  }

  size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }
  // Packets the columns have room for.
  size_t capacity() const { return ts_.capacity(); }
  void reserve(size_t packets);

  void push_back(const PacketRecord& r);
  // Appends one packet field by field, as the pcap reader parses it: `sni`
  // is empty when the packet carries none.
  void Append(TimeUs timestamp, const FlowKey& key, bool from_client, uint32_t payload,
              uint32_t tcp_seq, uint32_t tcp_ack, uint32_t quic_packet_number,
              std::string_view sni);

  // The record of packet `i`, assembled from the columns. It is const so that
  // an attempt to edit a stored packet through it does not compile.
  const PacketRecord operator[](size_t i) const;
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

  // Bytes the columns, the flow table and the SNI list hold: capacity()
  // times element size, summed (the SNI strings' heap bytes and the flow
  // map's nodes are not counted).
  size_t held_bytes() const;

  // Capture-order columns (size size()).
  const std::vector<int64_t>& timestamps() const { return ts_; }
  const std::vector<uint32_t>& payloads() const { return payload_; }
  const std::vector<uint32_t>& tcp_seqs() const { return seq_; }
  const std::vector<uint32_t>& flow_ids() const { return flow_; }
  const std::vector<uint8_t>& flags() const { return flags_; }

  // The flow table (ids are first-appearance order).
  const std::vector<FlowKey>& flow_keys() const { return flow_keys_; }
  const std::vector<size_t>& flow_packets() const { return flow_packets_; }
  // Packets with payload > 0, the ones PacketColumns holds.
  const std::vector<size_t>& flow_data_packets() const { return flow_data_packets_; }
  const std::vector<int64_t>& flow_downlink_bytes() const { return flow_downlink_; }
  // Maximal stretches of consecutive packets of one flow; equal to the flow
  // count when every flow's packets are contiguous.
  size_t runs() const { return runs_; }

  // One entry per packet that carries an SNI, in capture order.
  const std::vector<Sni>& snis() const { return snis_; }

 private:
  std::vector<int64_t> ts_;
  std::vector<uint32_t> payload_;
  std::vector<uint32_t> seq_;
  std::vector<uint32_t> ack_;
  std::vector<uint32_t> pn_;
  std::vector<uint32_t> flow_;
  std::vector<uint8_t> flags_;

  std::vector<FlowKey> flow_keys_;
  std::vector<size_t> flow_packets_;
  std::vector<size_t> flow_data_packets_;
  std::vector<int64_t> flow_downlink_;
  std::map<FlowKey, uint32_t> flow_index_;
  size_t runs_ = 0;

  std::vector<Sni> snis_;
};

}  // namespace csi::capture

#endif  // CSI_SRC_CAPTURE_CAPTURE_TRACE_H_
