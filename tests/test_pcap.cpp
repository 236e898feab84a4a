// Tests for packet records, the v6tcap serialization, and AS/rDNS
// registries.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "net/asn.hpp"
#include "net/packet.hpp"
#include "net/pcap.hpp"
#include "net/tool_signatures.hpp"
#include "sim/rng.hpp"

namespace v6t::net {
namespace {

Packet samplePacket(sim::Rng& rng) {
  Packet p;
  p.ts = sim::SimTime{static_cast<std::int64_t>(rng.below(1u << 30))};
  p.src = Ipv6Address{rng.next(), rng.next()};
  p.dst = Ipv6Address{rng.next(), rng.next()};
  p.proto = static_cast<Protocol>(rng.below(3));
  p.srcPort = static_cast<std::uint16_t>(rng.below(65536));
  p.dstPort = static_cast<std::uint16_t>(rng.below(65536));
  p.icmpType = static_cast<std::uint8_t>(rng.below(256));
  p.hopLimit = static_cast<std::uint8_t>(rng.below(256));
  p.srcAsn = Asn{static_cast<std::uint32_t>(rng.below(70000))};
  const std::size_t payloadLen = rng.below(24);
  for (std::size_t i = 0; i < payloadLen; ++i) {
    p.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  return p;
}

bool equal(const Packet& a, const Packet& b) {
  return a.ts == b.ts && a.src == b.src && a.dst == b.dst &&
         a.proto == b.proto && a.srcPort == b.srcPort &&
         a.dstPort == b.dstPort && a.icmpType == b.icmpType &&
         a.icmpCode == b.icmpCode && a.hopLimit == b.hopLimit &&
         a.srcAsn == b.srcAsn && a.payload == b.payload;
}

TEST(Pcap, RoundTrip) {
  sim::Rng rng{21};
  std::vector<Packet> in;
  for (int i = 0; i < 500; ++i) in.push_back(samplePacket(rng));

  std::stringstream stream;
  CaptureWriter writer{stream};
  for (const Packet& p : in) writer.write(p);
  EXPECT_EQ(writer.recordsWritten(), 500u);

  CaptureReader reader{stream};
  ASSERT_TRUE(reader.ok());
  const std::vector<Packet> out = reader.readAll();
  EXPECT_TRUE(reader.ok()); // clean EOF
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(equal(in[i], out[i])) << "record " << i;
  }
}

TEST(Pcap, RejectsForeignMagic) {
  std::stringstream stream;
  stream << "NOTACAPFILE";
  CaptureReader reader{stream};
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Pcap, TornRecordFlagsError) {
  sim::Rng rng{22};
  std::stringstream stream;
  CaptureWriter writer{stream};
  writer.write(samplePacket(rng));
  writer.write(samplePacket(rng));
  std::string data = stream.str();
  data.resize(data.size() - 7); // tear the last record

  std::stringstream torn{data};
  CaptureReader reader{torn};
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.ok()); // torn, not clean EOF
}

TEST(Pcap, EmptyCapture) {
  std::stringstream stream;
  CaptureWriter writer{stream};
  CaptureReader reader{stream};
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_TRUE(reader.ok());
}

TEST(Pcap, RoundTripAcrossReadBlocks) {
  // Enough records that the reader refills its read-ahead block many
  // times, with records straddling every refill boundary.
  sim::Rng rng{23};
  std::vector<Packet> in;
  for (int i = 0; i < 6000; ++i) in.push_back(samplePacket(rng));
  std::stringstream stream;
  CaptureWriter writer{stream};
  for (const Packet& p : in) writer.write(p);
  ASSERT_GT(stream.str().size(), 4 * CaptureReader::kReadBlockBytes);

  CaptureReader reader{stream};
  const std::vector<Packet> out = reader.readAll();
  EXPECT_TRUE(reader.ok());
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_TRUE(equal(in[i], out[i])) << "record " << i;
  }
}

// --- the shared record decoder -------------------------------------------

/// Field-by-field std::istream reader: the decoder the codec replaced, kept
/// as the oracle decodeRecord must agree with.
template <typename T>
bool oracleGet(std::istream& in, T& value) {
  std::array<char, sizeof(T)> buf;
  in.read(buf.data(), buf.size());
  if (in.gcount() != static_cast<std::streamsize>(buf.size())) return false;
  std::uint64_t v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) {
    v = (v << 8) | static_cast<std::uint8_t>(buf[i]);
  }
  value = static_cast<T>(v);
  return true;
}

bool oracleRead(std::istream& in, Packet& p, bool withOrigin) {
  std::int64_t ts = 0;
  std::array<std::uint8_t, 16> src{};
  std::array<std::uint8_t, 16> dst{};
  std::uint8_t proto = 0;
  std::uint32_t asn = 0;
  std::uint16_t len = 0;
  if (!oracleGet(in, ts)) return false;
  in.read(reinterpret_cast<char*>(src.data()), 16);
  in.read(reinterpret_cast<char*>(dst.data()), 16);
  if (!in || !oracleGet(in, proto) || !oracleGet(in, p.srcPort) ||
      !oracleGet(in, p.dstPort) || !oracleGet(in, p.icmpType) ||
      !oracleGet(in, p.icmpCode) || !oracleGet(in, p.hopLimit) ||
      !oracleGet(in, asn)) {
    return false;
  }
  if (withOrigin &&
      (!oracleGet(in, p.originId) || !oracleGet(in, p.originSeq))) {
    return false;
  }
  if (!oracleGet(in, len) || proto > 2 || len > PayloadBuf::kCapacity) {
    return false;
  }
  p.ts = sim::SimTime{ts};
  p.src = Ipv6Address{src};
  p.dst = Ipv6Address{dst};
  p.proto = static_cast<Protocol>(proto);
  p.srcAsn = Asn{asn};
  p.payload.resize(len);
  in.read(reinterpret_cast<char*>(p.payload.data()), len);
  return in.gcount() == len;
}

Packet codecPacket(sim::Rng& rng, std::size_t payloadLen) {
  Packet p = samplePacket(rng);
  p.icmpCode = static_cast<std::uint8_t>(rng.below(256));
  p.originId = static_cast<std::uint32_t>(rng.next());
  p.originSeq = rng.next();
  p.payload.clear();
  for (std::size_t i = 0; i < payloadLen; ++i) {
    p.payload.push_back(static_cast<std::uint8_t>(rng.below(256)));
  }
  return p;
}

TEST(RecordCodec, DecodeMatchesFieldByFieldReader) {
  for (const bool withOrigin : {false, true}) {
    sim::Rng rng{withOrigin ? 31u : 32u};
    std::string bytes;
    std::vector<Packet> in;
    for (int round = 0; round < 50; ++round) {
      for (const std::size_t len : {0u, 1u, 12u, 16u}) {
        in.push_back(codecPacket(rng, len));
        unsigned char buf[kMaxRecordBytes];
        const std::size_t n = encodeRecord(buf, in.back(), withOrigin);
        bytes.append(reinterpret_cast<const char*>(buf), n);
      }
    }
    std::istringstream oracle{bytes};
    const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
    std::size_t pos = 0;
    for (std::size_t i = 0; i < in.size(); ++i) {
      Packet want;
      ASSERT_TRUE(oracleRead(oracle, want, withOrigin)) << "record " << i;
      Packet got;
      std::size_t used = 0;
      ASSERT_EQ(decodeRecord(data + pos, bytes.size() - pos, got, withOrigin,
                             used),
                RecordStatus::Ok)
          << "record " << i;
      pos += used;
      EXPECT_EQ(static_cast<std::streamoff>(pos), oracle.tellg());
      EXPECT_TRUE(equal(got, want)) << "record " << i;
      EXPECT_TRUE(equal(got, in[i])) << "record " << i;
      EXPECT_EQ(got.originId, withOrigin ? in[i].originId : 0u);
      EXPECT_EQ(got.originSeq, withOrigin ? in[i].originSeq : 0u);
    }
    Packet rest;
    std::size_t used = 0;
    EXPECT_EQ(decodeRecord(data + pos, 0, rest, withOrigin, used),
              RecordStatus::Eof);
  }
}

TEST(RecordCodec, TruncatedLastRecordIsMalformedAtEveryOffset) {
  sim::Rng rng{33};
  std::stringstream stream;
  CaptureWriter writer{stream};
  writer.write(codecPacket(rng, 12));
  const std::size_t firstEnd = stream.str().size();
  writer.write(codecPacket(rng, 16));
  const std::string full = stream.str();
  const std::size_t lastLen = full.size() - firstEnd;

  for (std::size_t keep = 1; keep < lastLen; ++keep) {
    const std::string cut = full.substr(0, firstEnd + keep);
    Packet p;
    std::size_t used = 0;
    EXPECT_EQ(decodeRecord(
                  reinterpret_cast<const unsigned char*>(cut.data()) + firstEnd,
                  keep, p, /*withOrigin=*/false, used),
              RecordStatus::Malformed)
        << keep << " of " << lastLen << " bytes";
    std::istringstream torn{cut};
    CaptureReader reader{torn};
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.readAll().size(), 1u) << keep << " bytes kept";
    EXPECT_FALSE(reader.ok()) << keep << " bytes kept";
  }
}

TEST(RecordCodec, RejectsUnknownProtocolAndOversizedPayload) {
  sim::Rng rng{34};
  unsigned char buf[kMaxRecordBytes + 1];
  const Packet p = codecPacket(rng, 16);
  const std::size_t n = encodeRecord(buf, p, /*withOrigin=*/false);
  const auto decodes = [&](const unsigned char* bytes, std::size_t len) {
    Packet out;
    std::size_t used = 0;
    return decodeRecord(bytes, len, out, /*withOrigin=*/false, used);
  };
  ASSERT_EQ(decodes(buf, n), RecordStatus::Ok);

  unsigned char bad[kMaxRecordBytes + 1];
  std::copy(buf, buf + n, bad);
  bad[40] = 3; // proto: ICMPv6/TCP/UDP are 0..2
  EXPECT_EQ(decodes(bad, n), RecordStatus::Malformed);

  // plen = 17 with 17 payload bytes present: oversized, not torn.
  std::copy(buf, buf + n, bad);
  bad[n - 16 - 2] = 17;
  bad[n] = 0xab;
  EXPECT_EQ(decodes(bad, n + 1), RecordStatus::Malformed);

  for (const std::size_t offset : {std::size_t{40}, n - 18}) {
    std::stringstream stream;
    CaptureWriter writer{stream};
    writer.write(p);
    std::string data = stream.str();
    data[sizeof(kCaptureMagic) + offset] =
        static_cast<char>(offset == 40 ? 3 : 17);
    if (offset != 40) data.push_back('\x01');
    std::istringstream in{data};
    CaptureReader reader{in};
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_FALSE(reader.ok());
  }
}

TEST(Packet, TraceroutePortRange) {
  EXPECT_TRUE(isTraceroutePort(33434));
  EXPECT_TRUE(isTraceroutePort(33523));
  EXPECT_FALSE(isTraceroutePort(33433));
  EXPECT_FALSE(isTraceroutePort(33524));
  EXPECT_FALSE(isTraceroutePort(80));
}

TEST(AsRegistry, LookupAndTypes) {
  AsRegistry registry;
  registry.add(AsInfo{Asn{65001}, "Test Hosting", NetworkType::Hosting, "DE",
                      false});
  registry.add(AsInfo{Asn{65002}, "Test Uni", NetworkType::Education, "US",
                      true});
  ASSERT_NE(registry.find(Asn{65001}), nullptr);
  EXPECT_EQ(registry.find(Asn{65001})->name, "Test Hosting");
  EXPECT_EQ(registry.typeOf(Asn{65001}), NetworkType::Hosting);
  EXPECT_EQ(registry.typeOf(Asn{65002}), NetworkType::Education);
  EXPECT_EQ(registry.typeOf(Asn{65999}), NetworkType::Unknown);
  EXPECT_TRUE(registry.isResearch(Asn{65002}));
  EXPECT_FALSE(registry.isResearch(Asn{65001}));
  EXPECT_FALSE(registry.isResearch(Asn{65999}));
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RdnsRegistry, Lookup) {
  RdnsRegistry rdns;
  const Ipv6Address a = Ipv6Address::mustParse("2001:db8::1");
  rdns.add(a, "probe1.atlas.example");
  ASSERT_TRUE(rdns.lookup(a).has_value());
  EXPECT_EQ(*rdns.lookup(a), "probe1.atlas.example");
  EXPECT_FALSE(rdns.lookup(Ipv6Address::mustParse("2001:db8::2")).has_value());
}

TEST(ToolSignatures, MatchesAllTools) {
  for (const ToolSignature& sig : kToolSignatures) {
    std::vector<std::uint8_t> payload(sig.magic.begin(),
                                      sig.magic.begin() + sig.magicLen);
    payload.push_back(0x99);
    EXPECT_EQ(matchToolSignature(payload), sig.tool);
  }
}

TEST(ToolSignatures, UnknownOnNoMatch) {
  const std::vector<std::uint8_t> random{0xde, 0xad, 0xbe, 0xef, 0x01};
  EXPECT_EQ(matchToolSignature(random), ScanTool::Unknown);
  EXPECT_EQ(matchToolSignature({}), ScanTool::Unknown);
  const std::vector<std::uint8_t> tooShort{'y', 'r'};
  EXPECT_EQ(matchToolSignature(tooShort), ScanTool::Unknown);
}

} // namespace
} // namespace v6t::net
