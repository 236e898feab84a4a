#include "net/pcap.hpp"

#include <array>
#include <cstring>

namespace v6t::net {

namespace {

template <typename T>
std::size_t putLe(unsigned char* buf, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf[i] = static_cast<unsigned char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff);
  }
  return sizeof(T);
}

template <typename T>
T getLe(const unsigned char* buf) {
  std::uint64_t v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) v = (v << 8) | buf[i];
  return static_cast<T>(v);
}

Ipv6Address getAddr(const unsigned char* buf) {
  std::array<std::uint8_t, 16> bytes;
  std::memcpy(bytes.data(), buf, 16);
  return Ipv6Address{bytes};
}

/// Encoded length of a record before its payload bytes.
constexpr std::size_t kFixedBytes = 8 + 16 + 16 + 1 + 2 + 2 + 1 + 1 + 1 + 4;
constexpr std::size_t kOriginBytes = 4 + 8;

} // namespace

std::size_t encodeRecord(unsigned char* buf, const Packet& p,
                         bool withOrigin) {
  std::size_t n = 0;
  n += putLe<std::int64_t>(buf + n, p.ts.millis());
  std::memcpy(buf + n, p.src.bytes().data(), 16);
  n += 16;
  std::memcpy(buf + n, p.dst.bytes().data(), 16);
  n += 16;
  n += putLe<std::uint8_t>(buf + n, static_cast<std::uint8_t>(p.proto));
  n += putLe<std::uint16_t>(buf + n, p.srcPort);
  n += putLe<std::uint16_t>(buf + n, p.dstPort);
  n += putLe<std::uint8_t>(buf + n, p.icmpType);
  n += putLe<std::uint8_t>(buf + n, p.icmpCode);
  n += putLe<std::uint8_t>(buf + n, p.hopLimit);
  n += putLe<std::uint32_t>(buf + n, p.srcAsn.value());
  if (withOrigin) {
    n += putLe<std::uint32_t>(buf + n, p.originId);
    n += putLe<std::uint64_t>(buf + n, p.originSeq);
  }
  const std::size_t len = p.payload.size(); // <= PayloadBuf::kCapacity
  n += putLe<std::uint16_t>(buf + n, static_cast<std::uint16_t>(len));
  if (len > 0) {
    std::memcpy(buf + n, p.payload.data(), len);
    n += len;
  }
  return n;
}

RecordStatus decodeRecord(const unsigned char* buf, std::size_t avail,
                          Packet& p, bool withOrigin, std::size_t& used) {
  // Byte offsets follow the layout in pcap.hpp: ts 0, src 8, dst 24,
  // proto 40, ports 41/43, icmpType/Code 45/46, hopLimit 47, srcAsn 48,
  // then [originId, originSeq] and plen.
  if (avail == 0) return RecordStatus::Eof;
  const std::size_t head = kFixedBytes + (withOrigin ? kOriginBytes : 0) + 2;
  if (avail < head) return RecordStatus::Malformed; // torn record
  const std::uint8_t proto = buf[40];
  const auto payloadLen = getLe<std::uint16_t>(buf + head - 2);
  // An unknown protocol, or a payload longer than any this model can emit,
  // marks a foreign or corrupt record.
  if (proto > 2 || payloadLen > PayloadBuf::kCapacity) {
    return RecordStatus::Malformed;
  }
  if (avail - head < payloadLen) return RecordStatus::Malformed;
  p = Packet{};
  p.ts = sim::SimTime{getLe<std::int64_t>(buf)};
  p.src = getAddr(buf + 8);
  p.dst = getAddr(buf + 24);
  p.proto = static_cast<Protocol>(proto);
  p.srcPort = getLe<std::uint16_t>(buf + 41);
  p.dstPort = getLe<std::uint16_t>(buf + 43);
  p.icmpType = buf[45];
  p.icmpCode = buf[46];
  p.hopLimit = buf[47];
  p.srcAsn = Asn{getLe<std::uint32_t>(buf + 48)};
  if (withOrigin) {
    p.originId = getLe<std::uint32_t>(buf + kFixedBytes);
    p.originSeq = getLe<std::uint64_t>(buf + kFixedBytes + 4);
  }
  p.payload.assign(buf + head, buf + head + payloadLen);
  used = head + payloadLen;
  return RecordStatus::Ok;
}

CaptureWriter::CaptureWriter(std::ostream& out) : out_(out) {
  out_.write(kCaptureMagic, sizeof(kCaptureMagic));
}

void CaptureWriter::write(const Packet& p) {
  unsigned char buf[kMaxRecordBytes];
  const std::size_t n = encodeRecord(buf, p, /*withOrigin=*/false);
  out_.write(reinterpret_cast<const char*>(buf),
             static_cast<std::streamsize>(n));
  ++records_;
}

CaptureReader::CaptureReader(std::istream& in)
    : in_(in), buf_(kReadBlockBytes) {
  char magic[8];
  in_.read(magic, sizeof(magic));
  ok_ = in_.gcount() == sizeof(magic) &&
        std::memcmp(magic, kCaptureMagic, sizeof(magic)) == 0;
}

void CaptureReader::refill() {
  if (eof_ || end_ - pos_ >= kMaxRecordBytes) return;
  std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
  end_ -= pos_;
  pos_ = 0;
  in_.read(reinterpret_cast<char*>(buf_.data() + end_),
           static_cast<std::streamsize>(buf_.size() - end_));
  const auto got = static_cast<std::size_t>(in_.gcount());
  eof_ = got < buf_.size() - end_;
  end_ += got;
}

std::optional<Packet> CaptureReader::next() {
  if (!ok_) return std::nullopt;
  refill();
  Packet p;
  std::size_t used = 0;
  switch (decodeRecord(buf_.data() + pos_, end_ - pos_, p,
                       /*withOrigin=*/false, used)) {
  case RecordStatus::Ok:
    pos_ += used;
    return p;
  case RecordStatus::Eof:
    return std::nullopt; // clean EOF
  case RecordStatus::Malformed:
    ok_ = false;
    return std::nullopt;
  }
  return std::nullopt;
}

std::vector<Packet> CaptureReader::readAll() {
  std::vector<Packet> out;
  while (auto p = next()) out.push_back(std::move(*p));
  return out;
}

} // namespace v6t::net
