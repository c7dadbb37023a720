#include "service/cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <utility>

#include "service/json.hpp"

namespace pcd::service {

namespace {

std::uint64_t fnv1a(const char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

bool parse_hex16(const std::string& s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 16);
  return end == s.c_str() + 16;
}

JsonValue summary_json(const campaign::Summary& s) {
  JsonValue v = JsonValue::object();
  v.set("n", JsonValue::of(s.n));
  v.set("median", JsonValue::of(hex_double(s.median)));
  v.set("q1", JsonValue::of(hex_double(s.q1)));
  v.set("q3", JsonValue::of(hex_double(s.q3)));
  v.set("min", JsonValue::of(hex_double(s.min)));
  v.set("max", JsonValue::of(hex_double(s.max)));
  v.set("mean", JsonValue::of(hex_double(s.mean)));
  return v;
}

bool summary_from(const JsonValue* v, campaign::Summary* out) {
  if (v == nullptr || !v->is_object()) return false;
  out->n = static_cast<int>(v->int_or("n", -1));
  if (out->n < 0) return false;
  struct Field { const char* name; double* dst; };
  const Field fields[] = {{"median", &out->median}, {"q1", &out->q1},
                          {"q3", &out->q3},         {"min", &out->min},
                          {"max", &out->max},       {"mean", &out->mean}};
  for (const auto& f : fields) {
    const JsonValue* s = v->find(f.name);
    if (s == nullptr || !s->is_string() ||
        !parse_hex_double(s->as_string(), f.dst)) {
      return false;
    }
  }
  return true;
}

bool hex_field(const JsonValue& v, const char* name, double* out) {
  const JsonValue* s = v.find(name);
  return s != nullptr && s->is_string() && parse_hex_double(s->as_string(), out);
}

}  // namespace

std::string ResultCache::encode(const campaign::CellResult& cell) {
  JsonValue v = JsonValue::object();
  v.set("index", JsonValue::of(static_cast<std::int64_t>(cell.index)));
  v.set("workload", JsonValue::of(cell.workload));
  JsonValue labels = JsonValue::array();
  for (const auto& l : cell.labels) labels.push(JsonValue::of(l));
  v.set("labels", std::move(labels));
  JsonValue numbers = JsonValue::array();
  for (double n : cell.numbers) numbers.push(JsonValue::of(hex_double(n)));
  v.set("numbers", std::move(numbers));
  JsonValue numeric = JsonValue::array();
  for (bool b : cell.numeric) numeric.push(JsonValue::of(b));
  v.set("numeric", std::move(numeric));
  v.set("delay", summary_json(cell.delay));
  v.set("energy", summary_json(cell.energy));
  v.set("digest_root", JsonValue::of(hex16(cell.digest_root)));
  v.set("has_digest", JsonValue::of(cell.has_digest));
  v.set("runs", JsonValue::of(cell.runs));
  v.set("failures", JsonValue::of(cell.failures));
  v.set("thrown", JsonValue::of(cell.thrown));
  JsonValue errors = JsonValue::array();
  for (const auto& e : cell.errors) errors.push(JsonValue::of(e));
  v.set("errors", std::move(errors));
  v.set("first_exception", JsonValue::of(cell.first_exception));
  // Representative run: exactly the fields tsv()/table() consume.  Cached
  // cells are clean successes, so traces/telemetry/fault reports (which do
  // not enter the TSV) are not persisted.
  JsonValue r = JsonValue::object();
  r.set("workload", JsonValue::of(cell.result.workload));
  r.set("delay_s", JsonValue::of(hex_double(cell.result.delay_s)));
  r.set("energy_j", JsonValue::of(hex_double(cell.result.energy_j)));
  r.set("energy_acpi_j", JsonValue::of(hex_double(cell.result.energy_acpi_j)));
  r.set("energy_baytech_j",
        JsonValue::of(hex_double(cell.result.energy_baytech_j)));
  r.set("dvs_transitions",
        JsonValue::of(static_cast<std::int64_t>(cell.result.dvs_transitions)));
  r.set("net_collisions",
        JsonValue::of(static_cast<std::int64_t>(cell.result.net_collisions)));
  r.set("messages", JsonValue::of(static_cast<std::int64_t>(cell.result.messages)));
  r.set("mean_utilization",
        JsonValue::of(hex_double(cell.result.mean_utilization)));
  r.set("failed", JsonValue::of(cell.result.failed));
  r.set("failure", JsonValue::of(cell.result.failure));
  v.set("result", std::move(r));
  return v.write();
}

bool ResultCache::decode(const std::string& payload, campaign::CellResult* out) {
  auto parsed = json_parse(payload);
  if (!parsed.has_value() || !parsed->is_object()) return false;
  const JsonValue& v = *parsed;
  campaign::CellResult cell;
  cell.index = static_cast<std::size_t>(v.int_or("index", 0));
  const JsonValue* wl = v.find("workload");
  if (wl == nullptr || !wl->is_string()) return false;
  cell.workload = wl->as_string();
  const JsonValue* labels = v.find("labels");
  if (labels == nullptr || !labels->is_array()) return false;
  for (const auto& l : labels->items()) {
    if (!l.is_string()) return false;
    cell.labels.push_back(l.as_string());
  }
  const JsonValue* numbers = v.find("numbers");
  if (numbers == nullptr || !numbers->is_array()) return false;
  for (const auto& n : numbers->items()) {
    double d = 0;
    if (!n.is_string() || !parse_hex_double(n.as_string(), &d)) return false;
    cell.numbers.push_back(d);
  }
  const JsonValue* numeric = v.find("numeric");
  if (numeric == nullptr || !numeric->is_array()) return false;
  for (const auto& b : numeric->items()) {
    if (!b.is_bool()) return false;
    cell.numeric.push_back(b.as_bool());
  }
  if (!summary_from(v.find("delay"), &cell.delay)) return false;
  if (!summary_from(v.find("energy"), &cell.energy)) return false;
  const JsonValue* root = v.find("digest_root");
  if (root == nullptr || !root->is_string() ||
      !parse_hex16(root->as_string(), &cell.digest_root)) {
    return false;
  }
  cell.has_digest = v.bool_or("has_digest", false);
  cell.runs = static_cast<int>(v.int_or("runs", -1));
  cell.failures = static_cast<int>(v.int_or("failures", -1));
  cell.thrown = static_cast<int>(v.int_or("thrown", -1));
  if (cell.runs < 0 || cell.failures < 0 || cell.thrown < 0) return false;
  const JsonValue* errors = v.find("errors");
  if (errors == nullptr || !errors->is_array()) return false;
  for (const auto& e : errors->items()) {
    if (!e.is_string()) return false;
    cell.errors.push_back(e.as_string());
  }
  cell.first_exception = v.str_or("first_exception", "");
  const JsonValue* r = v.find("result");
  if (r == nullptr || !r->is_object()) return false;
  cell.result.workload = r->str_or("workload", "");
  if (!hex_field(*r, "delay_s", &cell.result.delay_s) ||
      !hex_field(*r, "energy_j", &cell.result.energy_j) ||
      !hex_field(*r, "energy_acpi_j", &cell.result.energy_acpi_j) ||
      !hex_field(*r, "energy_baytech_j", &cell.result.energy_baytech_j) ||
      !hex_field(*r, "mean_utilization", &cell.result.mean_utilization)) {
    return false;
  }
  cell.result.dvs_transitions = r->int_or("dvs_transitions", 0);
  cell.result.net_collisions = r->int_or("net_collisions", 0);
  cell.result.messages = r->int_or("messages", 0);
  cell.result.failed = r->bool_or("failed", false);
  cell.result.failure = r->str_or("failure", "");
  *out = std::move(cell);
  return true;
}

ResultCache::ResultCache(std::string dir, bool sync)
    : dir_(std::move(dir)), sync_(sync) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  log_fd_ = ::open(log_path().c_str(), O_RDWR | O_APPEND | O_CREAT, 0644);
  if (log_fd_ >= 0) recover();
}

ResultCache::~ResultCache() {
  if (log_fd_ >= 0) ::close(log_fd_);
}

// Record layout (see header): "PCDC1 <key> <len> <digest>\n<payload>\n".
// Returns the byte length of the whole record, or 0 when the bytes at
// `off` are not one intact, digest-verified record.  `framed` reports
// whether the header itself parsed and the payload was fully present —
// i.e. a 0 return with framed=true is a digest mismatch, not a torn tail.
namespace {
struct Record {
  std::uint64_t key = 0;
  std::uint64_t digest = 0;
  std::size_t payload_off = 0;
  std::size_t payload_len = 0;
};

std::size_t parse_record(const std::string& log, std::size_t off, Record* rec,
                         bool* framed) {
  *framed = false;
  const std::size_t nl = log.find('\n', off);
  if (nl == std::string::npos) return 0;
  unsigned long long key = 0, len = 0, digest = 0;
  int consumed = 0;
  const std::string header = log.substr(off, nl - off);
  if (std::sscanf(header.c_str(), "PCDC1 %16llx %llu %16llx%n", &key, &len,
                  &digest, &consumed) != 3 ||
      static_cast<std::size_t>(consumed) != header.size()) {
    return 0;
  }
  const std::size_t payload_off = nl + 1;
  // Overflow-safe fit check: payload plus its trailing '\n' must lie inside
  // the log (a huge `len` from a torn header must not wrap).
  if (len >= log.size() || payload_off > log.size() - len - 1) return 0;
  const std::size_t end = payload_off + static_cast<std::size_t>(len);
  if (log[end] != '\n') return 0;
  *framed = true;
  if (fnv1a(log.data() + payload_off, len) != digest) return 0;
  rec->key = key;
  rec->digest = digest;
  rec->payload_off = payload_off;
  rec->payload_len = len;
  return end + 1 - off;
}

std::uint64_t file_size(int fd) {
  struct stat st{};
  return ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

// Reads exactly `out->size()` bytes at `off`; false on error or EOF.
bool pread_exact(int fd, std::uint64_t off, std::string* out) {
  std::size_t got = 0;
  while (got < out->size()) {
    const ssize_t n = ::pread(fd, out->data() + got, out->size() - got,
                              static_cast<off_t>(off + got));
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}
}  // namespace

void ResultCache::recover() {
  std::string log(file_size(log_fd_), '\0');
  if (!pread_exact(log_fd_, 0, &log)) log.clear();  // unreadable: index nothing
  std::size_t pos = 0;
  while (pos < log.size()) {
    Record rec;
    bool framed = false;
    const std::size_t n = parse_record(log, pos, &rec, &framed);
    if (n == 0) {
      // Torn or corrupt tail: everything from here is untrusted (the log is
      // append-only, so bytes after an interrupted write prove nothing).
      if (framed) ++stats_.corrupt;
      stats_.torn_bytes = static_cast<std::int64_t>(log.size() - pos);
      if (::ftruncate(log_fd_, static_cast<off_t>(pos)) != 0) {
        // Leave the file as-is; the index still covers only the verified
        // prefix, and the next open re-truncates.
      }
      break;
    }
    index_[rec.key] = Slot{rec.payload_off, rec.payload_len, rec.digest};
    pos += n;
  }
  // Appends land at the file's real end, which is past `pos` if the
  // truncate failed.
  log_size_ = file_size(log_fd_);
  stats_.entries = static_cast<std::int64_t>(index_.size());
  stats_.recovered = stats_.entries;
}

std::optional<campaign::CellResult> ResultCache::lookup(std::uint64_t key) {
  Slot slot;
  std::string payload;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    slot = it->second;
    // A concurrent insert may reallocate the in-memory log, so its bytes are
    // copied under the lock; a log file is read after the lock is released.
    if (log_fd_ < 0) payload.assign(mem_log_, slot.offset, slot.length);
  }
  bool intact = true;
  if (log_fd_ >= 0) {
    payload.resize(slot.length);
    intact = pread_exact(log_fd_, slot.offset, &payload);
  }
  intact = intact && fnv1a(payload.data(), payload.size()) == slot.digest;
  campaign::CellResult cell;
  const bool decoded = intact && decode(payload, &cell);
  std::lock_guard<std::mutex> lock(mu_);
  if (!decoded) {
    // Changed bytes, or a verified payload this codec cannot decode (e.g.
    // written by a newer one): a miss, so the cell is recomputed and
    // re-inserted.  An insert may have re-pointed the key meanwhile; only
    // the slot that failed is dropped.
    auto it = index_.find(key);
    if (it != index_.end() && it->second == slot) {
      index_.erase(it);
      stats_.entries = static_cast<std::int64_t>(index_.size());
    }
    if (!intact) ++stats_.corrupt;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return cell;
}

void ResultCache::insert(std::uint64_t key, const campaign::CellResult& cell) {
  const std::string payload = encode(cell);
  const std::uint64_t digest = fnv1a(payload.data(), payload.size());
  char header[64];
  const int hn = std::snprintf(header, sizeof header,
                               "PCDC1 %016" PRIx64 " %zu %016" PRIx64 "\n",
                               key, payload.size(), digest);
  std::string record(header, static_cast<std::size_t>(hn));
  record += payload;
  record += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t start = 0;
  if (log_fd_ >= 0) {
    // One write so a crash can only tear the tail, then make it durable.
    if (::write(log_fd_, record.data(), record.size()) !=
        static_cast<ssize_t>(record.size())) {
      // A failed or short append (ENOSPC, EFBIG) must not leave a torn
      // record mid-log: the next open would drop every record after it.
      // Cut the log back and leave the key as it was, so the cell is
      // recomputed.  Should the cut fail, later appends land past the torn
      // bytes.
      if (::ftruncate(log_fd_, static_cast<off_t>(log_size_)) != 0) {
        log_size_ = file_size(log_fd_);
      }
      return;
    }
    if (sync_) ::fsync(log_fd_);
    start = log_size_;
    log_size_ += record.size();
  } else {
    start = mem_log_.size();
    mem_log_ += record;
  }
  index_[key] = Slot{start + static_cast<std::uint64_t>(hn), payload.size(), digest};
  stats_.entries = static_cast<std::int64_t>(index_.size());
  ++stats_.inserts;
}

void ResultCache::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_fd_ >= 0) ::fsync(log_fd_);
}

CacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pcd::service
