#include "svc/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "obs/trace.h"

namespace verdict::svc {

namespace {

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordHeaderBytes = 32;
constexpr std::size_t kMinCapacity = 1u << 20;  // 1 MiB

std::size_t align8(std::size_t n) { return (n + 7) & ~static_cast<std::size_t>(7); }

std::uint32_t fnv1a32(const char* data, std::size_t n) {
  std::uint32_t h = 0x811c9dc5u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x01000193u;
  }
  return h;
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

struct SegmentStore::Impl {
  std::string path;
  int fd = -1;
  char* base = nullptr;
  std::size_t capacity = 0;  // mapped (== file) size
  std::size_t used = kHeaderBytes;
  mutable std::mutex mu;
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> index;  // key -> record offset

  ~Impl() {
    if (base) {
      ::msync(base, capacity, MS_ASYNC);
      ::munmap(base, capacity);
    }
    if (fd >= 0) ::close(fd);
  }

  void map(std::size_t new_capacity) {
    if (base) {
      ::munmap(base, capacity);
      base = nullptr;
    }
    void* p = ::mmap(nullptr, new_capacity, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (p == MAP_FAILED)
      throw std::runtime_error("SegmentStore: mmap failed for " + path);
    base = static_cast<char*>(p);
    capacity = new_capacity;
  }

  bool grow_to(std::size_t needed) {
    std::size_t new_capacity = capacity;
    while (new_capacity < needed)
      new_capacity = std::max(new_capacity * 2, kMinCapacity);
    if (::ftruncate(fd, static_cast<off_t>(new_capacity)) != 0) return false;
    map(new_capacity);
    return true;
  }

  /// Parses the record at `offset`, which the open-time scan already
  /// checksummed. Returns nullopt when the payload no longer round-trips
  /// (schema drift across versions) — callers treat that as a miss.
  std::optional<CachedVerdict> parse_at(std::size_t offset, const Fingerprint& key) {
    const char* rec = base + offset;
    const std::uint32_t len = read_u32(rec + 4);
    std::string payload(rec + kRecordHeaderBytes, len);
    std::optional<std::pair<Fingerprint, CachedVerdict>> entry = cached_from_json(payload);
    if (!entry || entry->first != key) return std::nullopt;
    return std::move(entry->second);
  }
};

SegmentStore::SegmentStore(const std::string& path) : impl_(std::make_unique<Impl>()) {
  impl_->path = path;
  impl_->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (impl_->fd < 0)
    throw std::runtime_error("SegmentStore: cannot open " + path);
  struct stat st{};
  if (::fstat(impl_->fd, &st) != 0)
    throw std::runtime_error("SegmentStore: cannot stat " + path);
  std::size_t file_size = static_cast<std::size_t>(st.st_size);

  const bool fresh = file_size < kHeaderBytes;
  if (::ftruncate(impl_->fd, static_cast<off_t>(std::max(file_size, kMinCapacity))) != 0)
    throw std::runtime_error("SegmentStore: cannot size " + path);
  impl_->map(std::max(file_size, kMinCapacity));

  if (fresh) {
    std::memcpy(impl_->base, kSegmentMagic, sizeof(kSegmentMagic));
    std::memcpy(impl_->base + 8, &kSegmentVersion, sizeof(kSegmentVersion));
    std::memset(impl_->base + 12, 0, 4);
    file_size = kHeaderBytes;
  } else {
    if (std::memcmp(impl_->base, kSegmentMagic, sizeof(kSegmentMagic)) != 0)
      throw std::runtime_error("SegmentStore: " + path + " is not a verdict segment");
    const std::uint32_t version = read_u32(impl_->base + 8);
    if (version != kSegmentVersion)
      throw std::runtime_error("SegmentStore: " + path + " has segment version " +
                               std::to_string(version) + " (this build speaks " +
                               std::to_string(kSegmentVersion) + ")");
  }

  // Replay: walk records until the log ends — cleanly (zero marker / end of
  // file) or messily (torn record, bad checksum). A messy end is a crash
  // artifact, not corruption of what came before; everything before it loads.
  std::size_t pos = kHeaderBytes;
  const std::size_t scan_end = std::max(file_size, impl_->capacity);
  while (pos + kRecordHeaderBytes <= scan_end) {
    const char* rec = impl_->base + pos;
    const std::uint32_t marker = read_u32(rec);
    if (marker == 0) break;  // clean end of log
    if (marker != kRecordMarker) {
      obs::count("svc.segment.skipped");
      break;
    }
    const std::uint32_t len = read_u32(rec + 4);
    const std::size_t total = kRecordHeaderBytes + align8(len);
    if (pos + total > scan_end) {
      obs::count("svc.segment.skipped");
      break;
    }
    if (fnv1a32(rec + kRecordHeaderBytes, len) != read_u32(rec + 24)) {
      obs::count("svc.segment.skipped");
      break;
    }
    const Fingerprint key{read_u64(rec + 8), read_u64(rec + 16)};
    impl_->index[key] = pos;  // later records for a key supersede earlier ones
    obs::count("svc.segment.loaded");
    pos += total;
  }
  impl_->used = pos;
}

SegmentStore::~SegmentStore() = default;

std::optional<CachedVerdict> SegmentStore::lookup(const Fingerprint& key) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const auto it = impl_->index.find(key);
  if (it == impl_->index.end()) {
    obs::count("svc.segment.miss");
    return std::nullopt;
  }
  std::optional<CachedVerdict> v = impl_->parse_at(it->second, key);
  obs::count(v ? "svc.segment.hit" : "svc.segment.miss");
  return v;
}

bool SegmentStore::append(const Fingerprint& key, const CachedVerdict& value) {
  if (!cacheable(value)) return false;
  const std::string payload = cached_to_json(key, value);
  const std::size_t total = kRecordHeaderBytes + align8(payload.size());

  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->used + total > impl_->capacity &&
      !impl_->grow_to(impl_->used + total)) {
    return false;
  }
  char* rec = impl_->base + impl_->used;
  std::memset(rec, 0, total);
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t checksum = fnv1a32(payload.data(), payload.size());
  std::memcpy(rec + 4, &len, sizeof(len));
  std::memcpy(rec + 8, &key.hi, sizeof(key.hi));
  std::memcpy(rec + 16, &key.lo, sizeof(key.lo));
  std::memcpy(rec + 24, &checksum, sizeof(checksum));
  std::memcpy(rec + kRecordHeaderBytes, payload.data(), payload.size());
  // Marker written last: a crash mid-record leaves marker zero (or a torn
  // payload whose checksum fails) and the scan discards exactly this record.
  std::memcpy(rec, &kRecordMarker, sizeof(kRecordMarker));
  ::msync(impl_->base, impl_->used + total, MS_ASYNC);

  impl_->index[key] = impl_->used;
  impl_->used += total;
  obs::count("svc.segment.append");
  return true;
}

bool SegmentStore::flush() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  const bool synced = ::msync(impl_->base, impl_->used, MS_SYNC) == 0;
  return ::fsync(impl_->fd) == 0 && synced;
}

void SegmentStore::for_each(
    const std::function<void(const Fingerprint&, const CachedVerdict&)>& fn) {
  std::vector<std::pair<Fingerprint, std::size_t>> entries;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    entries.assign(impl_->index.begin(), impl_->index.end());
  }
  for (const auto& [key, offset] : entries) {
    std::optional<CachedVerdict> v;
    {
      std::lock_guard<std::mutex> lock(impl_->mu);
      v = impl_->parse_at(offset, key);
    }
    if (v) fn(key, *v);
  }
}

std::size_t SegmentStore::size() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->index.size();
}

const std::string& SegmentStore::path() const { return impl_->path; }

}  // namespace verdict::svc
