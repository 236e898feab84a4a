#include "telescope/segment_store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "net/pcap.hpp"
#include "telescope/digest.hpp"

namespace fs = std::filesystem;

namespace v6t::telescope {

namespace {

constexpr std::size_t kHeaderBytes = sizeof(kSegmentMagic); // 8
constexpr std::size_t kIndexEntryBytes = 32;
constexpr std::size_t kSourceEntryBytes = 24;
// Footer prefix (covered by the meta checksum): minTs maxTs recordCount
// indexCount sourceCount indexOffset firstSeq level reserved.
constexpr std::size_t kFooterPrefixBytes = 8 + 8 + 8 + 4 + 4 + 8 + 8 + 4 + 4;
static_assert(kFooterPrefixBytes + 8 + sizeof(kSegmentFooterMagic) ==
              kSegmentFooterBytes);

/// The v6tseg v2 checksum over a byte range (docs/FORMATS.md): each
/// 8-byte little-endian word w steps `h ^= w; h *= kFnvPrime; h ^= h >> 29`,
/// then one tail word — the 0..7 leftover bytes little-endian, with their
/// count in the top byte — steps the same way. Every step is a bijection of
/// `h` for a fixed word and injective in the word for a fixed `h`, so any
/// corruption confined to one word always changes the result.
std::uint64_t wordChecksum(const unsigned char* data, std::size_t n) {
  std::uint64_t h = kFnvBasis;
  const auto step = [&h](std::uint64_t w) {
    h ^= w;
    h *= kFnvPrime;
    h ^= h >> 29;
  };
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    step(w);
  }
  std::uint64_t tail = static_cast<std::uint64_t>(n - i) << 56;
  for (std::size_t k = 0; i + k < n; ++k) {
    tail |= static_cast<std::uint64_t>(data[i + k]) << (8 * k);
  }
  step(tail);
  return h;
}

template <typename T>
void putLe(std::string& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>(
        (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xff));
  }
}

template <typename T>
T getLe(const unsigned char* buf) {
  std::uint64_t v = 0;
  for (std::size_t i = sizeof(T); i-- > 0;) {
    v = (v << 8) | buf[i];
  }
  return static_cast<T>(v);
}

/// An address as its (hi64, lo64) halves: ordering the pairs orders the
/// addresses.
using AddrKey = std::pair<std::uint64_t, std::uint64_t>;

struct AddrKeyHash {
  std::size_t operator()(const AddrKey& k) const {
    std::uint64_t x = (k.first * 0x9e3779b97f4a7c15ULL) ^ k.second;
    x ^= x >> 32;
    x *= 0xd6e8feb86659fd93ULL;
    return static_cast<std::size_t>(x ^ (x >> 32));
  }
};

/// Writes one segment to `<final>.tmp`, records in canonical order, then
/// seals it: sparse index + source table + footer appended, stream closed,
/// file renamed into place (the RdbDump shape — a reader never sees a
/// half-written segment under its final name). Records are encoded into a
/// one-block buffer that is checksummed and written whole when the block
/// closes.
class SegmentFileWriter {
public:
  SegmentFileWriter(fs::path finalPath, std::uint64_t indexStride,
                    std::uint32_t level, std::uint64_t firstSeq)
      : finalPath_(std::move(finalPath)),
        tmpPath_(finalPath_.string() + ".tmp"),
        stride_(indexStride == 0 ? 1 : indexStride) {
    meta_.level = level;
    meta_.firstSeq = firstSeq;
    out_.open(tmpPath_, std::ios::binary | std::ios::trunc);
    if (!out_) {
      throw std::runtime_error("cannot open segment " + tmpPath_.string());
    }
    out_.write(kSegmentMagic, sizeof(kSegmentMagic));
    offset_ = kHeaderBytes;
  }

  void write(const net::Packet& p) {
    if (meta_.recordCount % stride_ == 0) {
      flushBlock();
      meta_.sparse.push_back(
          SegmentIndexEntry{p.ts.millis(), meta_.recordCount, offset_, 0});
    }
    if (block_.size() < blockLen_ + net::kMaxRecordBytes) {
      block_.resize(std::max(2 * block_.size(),
                             blockLen_ + net::kMaxRecordBytes));
    }
    blockLen_ += net::encodeRecord(block_.data() + blockLen_, p,
                                   /*withOrigin=*/true);
    if (meta_.recordCount == 0 || p.ts < meta_.minTs) meta_.minTs = p.ts;
    if (meta_.recordCount == 0 || meta_.maxTs < p.ts) meta_.maxTs = p.ts;
    ++sourceCounts_[{p.src.hi64(), p.src.lo64()}];
    ++meta_.recordCount;
  }

  /// Returns (meta, total file bytes). `beforeSeal` runs after the bytes
  /// are fully written and the stream closed but before the rename — the
  /// crash seam of the recovery tests.
  std::pair<SegmentMeta, std::uint64_t> seal(
      const std::function<void(const fs::path&)>& beforeSeal) {
    flushBlock();
    meta_.indexOffset = offset_;
    std::vector<std::pair<AddrKey, std::uint64_t>> counts(
        sourceCounts_.begin(), sourceCounts_.end());
    std::sort(counts.begin(), counts.end()); // (hi, lo) = address order
    meta_.sources.reserve(counts.size());
    for (const auto& [key, count] : counts) {
      meta_.sources.push_back(
          SegmentSourceCount{net::Ipv6Address{key.first, key.second}, count});
    }

    // Meta block: sparse index, source table, footer prefix — checksummed
    // as one contiguous range so probe() can validate with a single read.
    std::string block;
    block.reserve(meta_.sparse.size() * kIndexEntryBytes +
                  meta_.sources.size() * kSourceEntryBytes +
                  kSegmentFooterBytes);
    for (const SegmentIndexEntry& e : meta_.sparse) {
      putLe<std::int64_t>(block, e.ts);
      putLe<std::uint64_t>(block, e.record);
      putLe<std::uint64_t>(block, e.offset);
      putLe<std::uint64_t>(block, e.blockChecksum);
    }
    for (const SegmentSourceCount& s : meta_.sources) {
      putLe<std::uint64_t>(block, s.addr.hi64());
      putLe<std::uint64_t>(block, s.addr.lo64());
      putLe<std::uint64_t>(block, s.count);
    }
    putLe<std::int64_t>(block, meta_.minTs.millis());
    putLe<std::int64_t>(block, meta_.maxTs.millis());
    putLe<std::uint64_t>(block, meta_.recordCount);
    putLe<std::uint32_t>(block,
                         static_cast<std::uint32_t>(meta_.sparse.size()));
    putLe<std::uint32_t>(block,
                         static_cast<std::uint32_t>(meta_.sources.size()));
    putLe<std::uint64_t>(block, meta_.indexOffset);
    putLe<std::uint64_t>(block, meta_.firstSeq);
    putLe<std::uint32_t>(block, meta_.level);
    putLe<std::uint32_t>(block, 0); // reserved
    putLe<std::uint64_t>(
        block, wordChecksum(
                   reinterpret_cast<const unsigned char*>(block.data()),
                   block.size()));
    block.append(kSegmentFooterMagic, sizeof(kSegmentFooterMagic));

    out_.write(block.data(), static_cast<std::streamsize>(block.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error("short write sealing " + tmpPath_.string());
    }
    out_.close();
    if (beforeSeal) beforeSeal(tmpPath_);
    fs::rename(tmpPath_, finalPath_);
    return {std::move(meta_), offset_ + block.size()};
  }

private:
  /// Close the open block: stamp its checksum into its index entry and
  /// write its bytes with one call.
  void flushBlock() {
    if (blockLen_ == 0) return;
    meta_.sparse.back().blockChecksum = wordChecksum(block_.data(), blockLen_);
    out_.write(reinterpret_cast<const char*>(block_.data()),
               static_cast<std::streamsize>(blockLen_));
    offset_ += blockLen_;
    blockLen_ = 0;
  }

  fs::path finalPath_;
  fs::path tmpPath_;
  std::uint64_t stride_;
  std::ofstream out_;
  std::uint64_t offset_ = 0;
  std::vector<unsigned char> block_; // the open block's encoded records
  std::size_t blockLen_ = 0;
  SegmentMeta meta_;
  // Hashed per record, sorted once at seal.
  std::unordered_map<AddrKey, std::uint64_t, AddrKeyHash> sourceCounts_;
};

[[nodiscard]] std::optional<std::uint64_t> parseSegmentSeq(
    const std::string& name) {
  // seg-NNNNNN.v6tseg
  if (!name.starts_with("seg-") || !name.ends_with(".v6tseg")) {
    return std::nullopt;
  }
  const std::string digits = name.substr(4, name.size() - 4 - 7);
  if (digits.empty()) return std::nullopt;
  std::uint64_t seq = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return seq;
}

} // namespace

// --- SegmentCursor --------------------------------------------------------

SegmentCursor::SegmentCursor(const fs::path& path,
                             std::shared_ptr<const SegmentMeta> meta,
                             std::size_t firstBlock)
    : path_(path.string()), meta_(std::move(meta)), block_(firstBlock) {
  if (block_ >= meta_->sparse.size()) return; // nothing left to read
  file_.reset(std::fopen(path_.c_str(), "rb"));
  if (!file_) throw std::runtime_error("cannot open segment " + path_);
  // Unbuffered: every read is one whole block straight into buf_.
  std::setvbuf(file_.get(), nullptr, _IONBF, 0);
  if (std::fseek(file_.get(),
                 static_cast<long>(meta_->sparse[block_].offset),
                 SEEK_SET) != 0) {
    throw std::runtime_error("cannot seek segment " + path_);
  }
  loadBlock();
  decodeNext();
}

bool SegmentCursor::advance() {
  if (blockRemaining_ == 0) {
    if (pos_ != buf_.size()) {
      valid_ = false;
      throw std::runtime_error("block length mismatch in segment " + path_);
    }
    if (++block_ >= meta_->sparse.size()) {
      valid_ = false;
      return false;
    }
    loadBlock();
  }
  decodeNext();
  return true;
}

void SegmentCursor::loadBlock() {
  const std::vector<SegmentIndexEntry>& sparse = meta_->sparse;
  const bool last = block_ + 1 == sparse.size();
  const std::uint64_t end = last ? meta_->indexOffset : sparse[block_ + 1].offset;
  const std::uint64_t endRecord =
      last ? meta_->recordCount : sparse[block_ + 1].record;
  buf_.resize(end - sparse[block_].offset);
  if (std::fread(buf_.data(), 1, buf_.size(), file_.get()) != buf_.size()) {
    valid_ = false;
    throw std::runtime_error("torn block in segment " + path_);
  }
  if (wordChecksum(buf_.data(), buf_.size()) != sparse[block_].blockChecksum) {
    valid_ = false;
    throw std::runtime_error("segment block checksum mismatch: " + path_);
  }
  pos_ = 0;
  blockRemaining_ = endRecord - sparse[block_].record;
}

void SegmentCursor::decodeNext() {
  std::size_t used = 0;
  if (net::decodeRecord(buf_.data() + pos_, buf_.size() - pos_, head_,
                        /*withOrigin=*/true, used) != net::RecordStatus::Ok) {
    valid_ = false;
    throw std::runtime_error("torn record in segment " + path_);
  }
  pos_ += used;
  --blockRemaining_;
  valid_ = true;
}

// --- SegmentReader --------------------------------------------------------

std::optional<SegmentMeta> SegmentReader::probe(const fs::path& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::uint64_t>(in.tellg());
  if (size < kHeaderBytes + kSegmentFooterBytes) return std::nullopt;

  char magic[sizeof(kSegmentMagic)];
  in.seekg(0);
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kSegmentMagic, sizeof(magic)) != 0) {
    return std::nullopt;
  }

  unsigned char footer[kSegmentFooterBytes];
  in.seekg(static_cast<std::streamoff>(size - kSegmentFooterBytes));
  in.read(reinterpret_cast<char*>(footer), kSegmentFooterBytes);
  if (!in || std::memcmp(footer + kFooterPrefixBytes + 8, kSegmentFooterMagic,
                         sizeof(kSegmentFooterMagic)) != 0) {
    return std::nullopt;
  }

  SegmentMeta meta;
  meta.minTs = sim::SimTime{getLe<std::int64_t>(footer)};
  meta.maxTs = sim::SimTime{getLe<std::int64_t>(footer + 8)};
  meta.recordCount = getLe<std::uint64_t>(footer + 16);
  const auto indexCount = getLe<std::uint32_t>(footer + 24);
  const auto sourceCount = getLe<std::uint32_t>(footer + 28);
  meta.indexOffset = getLe<std::uint64_t>(footer + 32);
  meta.firstSeq = getLe<std::uint64_t>(footer + 40);
  meta.level = getLe<std::uint32_t>(footer + 48);
  const auto reserved = getLe<std::uint32_t>(footer + 52);
  const auto metaChecksum = getLe<std::uint64_t>(footer + 56);

  // The block sizes must tile the file exactly; anything else is a torn
  // or foreign layout.
  const std::uint64_t metaBytes =
      std::uint64_t{indexCount} * kIndexEntryBytes +
      std::uint64_t{sourceCount} * kSourceEntryBytes;
  if (reserved != 0 || meta.indexOffset < kHeaderBytes ||
      meta.indexOffset > size ||
      meta.indexOffset + metaBytes + kSegmentFooterBytes != size) {
    return std::nullopt;
  }

  // The meta checksum covers the contiguous range [indexOffset, footer
  // checksum field): index block, source block, footer prefix.
  std::vector<unsigned char> block(metaBytes + kFooterPrefixBytes);
  in.seekg(static_cast<std::streamoff>(meta.indexOffset));
  in.read(reinterpret_cast<char*>(block.data()),
          static_cast<std::streamsize>(block.size()));
  if (!in) return std::nullopt;
  if (wordChecksum(block.data(), block.size()) != metaChecksum) {
    return std::nullopt;
  }

  meta.sparse.reserve(indexCount);
  const unsigned char* p = block.data();
  for (std::uint32_t i = 0; i < indexCount; ++i, p += kIndexEntryBytes) {
    const SegmentIndexEntry e{getLe<std::int64_t>(p),
                              getLe<std::uint64_t>(p + 8),
                              getLe<std::uint64_t>(p + 16),
                              getLe<std::uint64_t>(p + 24)};
    // Blocks must start at record 0 / the first record byte and tile the
    // record area in ascending order: the cursor sizes its reads from them.
    const bool ordered =
        i == 0 ? e.record == 0 && e.offset == kHeaderBytes
               : e.record > meta.sparse.back().record &&
                     e.offset > meta.sparse.back().offset;
    if (!ordered || e.record >= meta.recordCount ||
        e.offset >= meta.indexOffset) {
      return std::nullopt;
    }
    meta.sparse.push_back(e);
  }
  if ((indexCount == 0) != (meta.recordCount == 0)) return std::nullopt;
  meta.sources.reserve(sourceCount);
  for (std::uint32_t i = 0; i < sourceCount; ++i, p += kSourceEntryBytes) {
    meta.sources.push_back(SegmentSourceCount{
        net::Ipv6Address{getLe<std::uint64_t>(p), getLe<std::uint64_t>(p + 8)},
        getLe<std::uint64_t>(p + 16)});
  }
  return meta;
}

SegmentReader::SegmentReader(fs::path path) : path_(std::move(path)) {
  auto meta = probe(path_);
  if (!meta) {
    throw std::runtime_error("invalid segment " + path_.string());
  }
  meta_ = std::make_shared<const SegmentMeta>(std::move(*meta));
}

SegmentCursor SegmentReader::cursor() const {
  return SegmentCursor{path_, meta_, 0};
}

SegmentCursor SegmentReader::lowerBound(sim::SimTime t) const {
  // Last sparse entry strictly before t: every record before it is <= its
  // ts < t, and every block after it starts at ts >= t, so the scan to the
  // first record with ts >= t stays inside that one block.
  const auto it = std::partition_point(
      meta_->sparse.begin(), meta_->sparse.end(),
      [&](const SegmentIndexEntry& e) { return e.ts < t.millis(); });
  const auto block = static_cast<std::size_t>(
      it == meta_->sparse.begin() ? 0 : it - meta_->sparse.begin() - 1);
  SegmentCursor c{path_, meta_, block};
  while (!c.empty() && c.head().ts < t) {
    if (!c.advance()) break;
  }
  return c;
}

std::uint64_t SegmentReader::packetsFromSource(
    const net::Ipv6Address& addr) const {
  const auto it = std::partition_point(
      meta_->sources.begin(), meta_->sources.end(),
      [&](const SegmentSourceCount& s) { return s.addr < addr; });
  if (it == meta_->sources.end() || it->addr != addr) return 0;
  return it->count;
}

// --- SegmentStore ---------------------------------------------------------

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)) {
  fs::create_directories(options_.dir);
  recoverDir();
}

fs::path SegmentStore::segmentPath(std::uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06llu.v6tseg",
                static_cast<unsigned long long>(seq));
  return options_.dir / name;
}

void SegmentStore::recoverDir() {
  std::vector<std::pair<std::uint64_t, SegmentReader>> sealed;
  std::vector<fs::path> partial;
  std::vector<fs::path> invalid;
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.ends_with(".v6tseg.tmp")) {
      partial.push_back(entry.path());
    } else if (const auto seq = parseSegmentSeq(name)) {
      if (const auto meta = SegmentReader::probe(entry.path());
          meta && meta->firstSeq <= *seq) {
        sealed.emplace_back(*seq, SegmentReader{entry.path()});
      } else {
        invalid.push_back(entry.path());
      }
    }
  }
  // A `.tmp` is a spill the process died inside of; an unreadable sealed
  // name is bit rot or a torn rename; a v1 segment fails probe on its
  // version byte. All are moved aside — never deleted, the operator may
  // want the bytes — and never read again.
  for (const fs::path& p : partial) {
    fs::rename(p, fs::path{p.string() + ".quarantined"});
    ++recovery_.quarantined;
  }
  for (const fs::path& p : invalid) {
    fs::rename(p, fs::path{p.string() + ".quarantined"});
    ++recovery_.quarantined;
  }
  // A merge covers the sequence range [firstSeq, its own seq], and merged
  // ranges nest. Newest first: a segment inside a range some newer kept
  // segment covers is an input whose merge sealed before the input was
  // removed — finish that compaction by removing it.
  std::sort(sealed.begin(), sealed.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::uint64_t coveredFrom = std::numeric_limits<std::uint64_t>::max();
  std::vector<SegmentReader> kept;
  for (auto& [seq, reader] : sealed) {
    nextSeq_ = std::max(nextSeq_, seq + 1);
    if (seq >= coveredFrom) {
      fs::remove(reader.path());
      ++recovery_.superseded;
      continue;
    }
    coveredFrom = std::min(coveredFrom, reader.meta().firstSeq);
    kept.push_back(std::move(reader));
  }
  segments_.assign(std::make_move_iterator(kept.rbegin()),
                   std::make_move_iterator(kept.rend()));
  for (const SegmentReader& seg : segments_) {
    sealedRecords_ += seg.meta().recordCount;
  }
  recovery_.sealedSegments = segments_.size();
  recovery_.durableRecords = sealedRecords_;
  if (options_.metrics != nullptr && recovery_.quarantined > 0) {
    options_.metrics->counter("capture.spill.quarantined_total")
        .inc(recovery_.quarantined);
  }
}

void SegmentStore::append(const net::Packet& p) {
  memtable_.push_back(p);
  if (options_.spillBytes > 0 && memtableBytes() >= options_.spillBytes) {
    spill();
  }
}

void SegmentStore::spill() {
  if (memtable_.empty()) return;
  std::optional<obs::Span> span;
  if (options_.metrics != nullptr) {
    span.emplace(*options_.metrics, "capture.spill.flush_seconds");
  }
  const std::vector<std::uint32_t> order = canonicalOrderOf(memtable_);
  SegmentFileWriter writer{segmentPath(nextSeq_), options_.indexStride,
                           /*level=*/0, /*firstSeq=*/nextSeq_};
  for (std::uint32_t i : order) writer.write(memtable_[i]);
  const std::uint64_t bytes = writer.seal(options_.beforeSeal).second;
  segments_.emplace_back(segmentPath(nextSeq_));
  ++nextSeq_;
  sealedRecords_ += memtable_.size();
  if (options_.metrics != nullptr) {
    options_.metrics->counter("capture.spill.segments_total").inc();
    options_.metrics->counter("capture.spill.bytes_total").inc(bytes);
    options_.metrics->counter("capture.spill.records_total")
        .inc(memtable_.size());
    options_.metrics
        ->gauge("capture.spill.segments_high_water", obs::GaugeMode::Max)
        .set(static_cast<double>(segments_.size()));
  }
  memtable_.clear();
  span.reset();

  // Tiered compaction. Levels never increase from oldest to newest, so the
  // newest segments sharing a level are that whole level; merging them
  // once they number the fanout keeps at most fanout-1 segments per level
  // and rewrites each record once per level it climbs. (After a crash a
  // level can hold more than the fanout; the run then merges whole.)
  const std::size_t fanout = options_.compactFanout;
  while (fanout >= 2) {
    std::size_t run = 1;
    while (run < segments_.size() &&
           segments_[segments_.size() - 1 - run].meta().level ==
               segments_.back().meta().level) {
      ++run;
    }
    if (run < fanout) break;
    mergeNewest(run);
  }
}

void SegmentStore::compact() {
  if (segments_.size() >= 2) mergeNewest(segments_.size());
}

void SegmentStore::mergeNewest(std::size_t count) {
  std::optional<obs::Span> span;
  if (options_.metrics != nullptr) {
    span.emplace(*options_.metrics, "capture.spill.compact_seconds");
  }
  const auto first =
      segments_.end() - static_cast<std::ptrdiff_t>(count);
  std::vector<SegmentCursor> cursors;
  cursors.reserve(count);
  std::uint32_t level = 0;
  std::uint64_t firstSeq = std::numeric_limits<std::uint64_t>::max();
  for (auto it = first; it != segments_.end(); ++it) {
    cursors.push_back(it->cursor());
    level = std::max(level, it->meta().level + 1);
    firstSeq = std::min(firstSeq, it->meta().firstSeq);
  }

  const fs::path outPath = segmentPath(nextSeq_);
  SegmentFileWriter writer{outPath, options_.indexStride, level, firstSeq};
  std::uint64_t merged = 0;
  for (KWayMerge<SegmentCursor> merge{std::move(cursors)}; !merge.done();
       merge.pop()) {
    writer.write(merge.head());
    ++merged;
  }
  writer.seal(options_.beforeSeal);
  for (auto it = first; it != segments_.end(); ++it) fs::remove(it->path());
  segments_.erase(first, segments_.end());
  segments_.emplace_back(outPath);
  ++nextSeq_;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("capture.spill.compactions_total").inc();
    options_.metrics->counter("capture.spill.compacted_records_total")
        .inc(merged);
  }
}

std::uint64_t SegmentStore::spilledBytes() const {
  std::uint64_t total = 0;
  for (const SegmentReader& seg : segments_) {
    total += static_cast<std::uint64_t>(fs::file_size(seg.path()));
  }
  return total;
}

std::uint64_t SegmentStore::packetsFromSource(
    const net::Ipv6Address& addr) const {
  std::uint64_t total = 0;
  for (const SegmentReader& seg : segments_) {
    total += seg.packetsFromSource(addr);
  }
  for (const net::Packet& p : memtable_) {
    if (p.src == addr) ++total;
  }
  return total;
}

SegmentStore::Cursor::Cursor(std::vector<SegmentCursor> segments,
                             std::vector<net::Packet> memRun)
    : merge_(std::move(segments)), memRun_(std::move(memRun)) {
  pickHead();
}

void SegmentStore::Cursor::pickHead() {
  const bool memLeft = memPos_ < memRun_.size();
  if (merge_.done()) {
    head_ = memLeft ? &memRun_[memPos_] : nullptr;
  } else if (memLeft &&
             canonicalKey(memRun_[memPos_]) < canonicalKey(merge_.head())) {
    head_ = &memRun_[memPos_];
  } else {
    head_ = &merge_.head();
  }
}

bool SegmentStore::Cursor::advance() {
  if (memPos_ < memRun_.size() && head_ == &memRun_[memPos_]) {
    ++memPos_;
  } else {
    merge_.pop();
  }
  pickHead();
  return head_ != nullptr;
}

SegmentStore::Cursor SegmentStore::cursor() const {
  std::vector<SegmentCursor> cursors;
  cursors.reserve(segments_.size());
  for (const SegmentReader& seg : segments_) cursors.push_back(seg.cursor());
  std::vector<net::Packet> memRun;
  memRun.reserve(memtable_.size());
  for (std::uint32_t i : canonicalOrderOf(memtable_)) {
    memRun.push_back(memtable_[i]);
  }
  return Cursor{std::move(cursors), std::move(memRun)};
}

SegmentStore::Cursor SegmentStore::cursor(sim::SimTime from) const {
  std::vector<SegmentCursor> cursors;
  cursors.reserve(segments_.size());
  for (const SegmentReader& seg : segments_) {
    cursors.push_back(seg.lowerBound(from));
  }
  // The memtable is append-time-ordered, so the tail at or after `from` is
  // one lower_bound away; dropping a ts-prefix cannot reorder what remains
  // because ts is the canonical key's leading field.
  const auto tail = std::lower_bound(
      memtable_.begin(), memtable_.end(), from,
      [](const net::Packet& p, sim::SimTime t) { return p.ts < t; });
  std::vector<net::Packet> mem(tail, memtable_.end());
  std::vector<net::Packet> memRun;
  memRun.reserve(mem.size());
  for (std::uint32_t i : canonicalOrderOf(mem)) memRun.push_back(mem[i]);
  return Cursor{std::move(cursors), std::move(memRun)};
}

SegmentStore::Cursor SegmentStore::cursorForSource(
    const net::Ipv6Address& addr, std::optional<sim::SimTime> from) const {
  std::vector<SegmentCursor> cursors;
  for (const SegmentReader& seg : segments_) {
    // The source table is exact, so a zero count proves the segment holds
    // nothing from `addr` — skipping it cannot change the filtered stream.
    if (seg.packetsFromSource(addr) == 0) continue;
    cursors.push_back(from ? seg.lowerBound(*from) : seg.cursor());
  }
  std::vector<net::Packet> mem;
  for (const net::Packet& p : memtable_) {
    if (p.src != addr) continue;
    if (from && p.ts < *from) continue;
    mem.push_back(p);
  }
  std::vector<net::Packet> memRun;
  memRun.reserve(mem.size());
  for (std::uint32_t i : canonicalOrderOf(mem)) memRun.push_back(mem[i]);
  return Cursor{std::move(cursors), std::move(memRun)};
}

std::uint64_t SegmentStore::digest() const {
  std::uint64_t h = kFnvBasis;
  Cursor c = cursor();
  if (!c.empty()) {
    do {
      fnv1aPacket(h, c.head());
    } while (c.advance());
  }
  return h;
}

} // namespace v6t::telescope
