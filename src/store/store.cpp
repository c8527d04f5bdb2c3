#include "store/store.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <utility>

#include "prof/prof.hpp"
#include "support/artifact.hpp"
#include "support/atomic_file.hpp"

namespace tbp::store {
namespace {

constexpr io::ArtifactFormat kEntryFormat{
    .magic = "tbp-store-entry-v1",
    .family = "tbp-store-entry-",
    .kind = "store-entry",
};

constexpr io::ArtifactFormat kIndexFormat{
    .magic = "tbp-store-index-v1",
    .family = "tbp-store-index-",
    .kind = "store-index",
};

[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  return ec == std::errc() && ptr == last;
}

/// Splits one line into whitespace-free tokens; the index and entry-header
/// grammars never contain embedded spaces (labels are [-._:A-Za-z0-9]).
[[nodiscard]] std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < line.size()) {
    const std::size_t start = line.find_first_not_of(' ', pos);
    if (start == std::string_view::npos) break;
    std::size_t end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    tokens.push_back(line.substr(start, end - start));
    pos = end;
  }
  return tokens;
}

/// Entry body layout (after the artifact envelope):
///
///   id <32 hex>\n
///   label <label>\n
///   bytes <payload size>\n
///   <payload, verbatim>\n
///
/// The id header makes every entry self-describing: a file renamed or
/// spliced under the wrong key is detected on read, and a rebuild can
/// re-derive the index from the files alone.  The explicit byte count (and
/// the terminating newline it excludes) makes the framing binary-safe:
/// payloads may contain anything, including a missing final newline, and
/// still never merge with the envelope's crc trailer line.
[[nodiscard]] std::string encode_entry_body(const StoreKey& key,
                                            std::string_view payload) {
  std::string body;
  body.reserve(key.id.size() + key.label.size() + payload.size() + 48);
  body += "id ";
  body += key.id;
  body += "\nlabel ";
  body += key.label;
  body += "\nbytes ";
  body += std::to_string(payload.size());
  body += '\n';
  body.append(payload.data(), payload.size());
  body += '\n';
  return body;
}

struct DecodedEntry {
  std::string id;
  std::string label;
  std::string payload;
};

[[nodiscard]] Result<DecodedEntry> decode_entry_body(std::string_view body) {
  const auto corrupt = [](std::string why) {
    return Status(StatusCode::kCorrupt, "store entry: " + std::move(why));
  };
  const std::size_t id_end = body.find('\n');
  if (id_end == std::string_view::npos) return corrupt("missing id line");
  const std::string_view id_line = body.substr(0, id_end);
  if (id_line.substr(0, 3) != "id ") return corrupt("malformed id line");
  const std::string_view id = id_line.substr(3);
  if (!valid_key_id(id)) return corrupt("invalid id field");

  const std::size_t label_start = id_end + 1;
  const std::size_t label_end = body.find('\n', label_start);
  if (label_end == std::string_view::npos) return corrupt("missing label line");
  const std::string_view label_line =
      body.substr(label_start, label_end - label_start);
  if (label_line.substr(0, 6) != "label ") return corrupt("malformed label line");
  const std::string_view label = label_line.substr(6);
  if (!valid_label(label)) return corrupt("invalid label field");

  const std::size_t bytes_start = label_end + 1;
  const std::size_t bytes_end = body.find('\n', bytes_start);
  if (bytes_end == std::string_view::npos) return corrupt("missing bytes line");
  const std::string_view bytes_line =
      body.substr(bytes_start, bytes_end - bytes_start);
  if (bytes_line.substr(0, 6) != "bytes ") return corrupt("malformed bytes line");
  std::uint64_t payload_bytes = 0;
  if (!parse_u64(bytes_line.substr(6), &payload_bytes)) {
    return corrupt("unreadable bytes field");
  }
  const std::string_view rest = body.substr(bytes_end + 1);
  // Exactly the declared payload plus its terminating newline.
  if (rest.size() != payload_bytes + 1 || rest.back() != '\n') {
    return corrupt("payload length disagrees with bytes field");
  }

  DecodedEntry entry;
  entry.id = std::string(id);
  entry.label = std::string(label);
  entry.payload = std::string(rest.substr(0, payload_bytes));
  return entry;
}

}  // namespace

ContentStore::ContentStore(std::filesystem::path dir, StoreOptions options)
    : dir_(std::move(dir)), options_(options) {}

std::filesystem::path ContentStore::entry_path(const StoreKey& key) const {
  return dir_ / kObjectsDirName / key.id.substr(0, 2) /
         (key.id.substr(2) + std::string(kEntrySuffix));
}

Status ContentStore::open() {
  auto state = state_.lock();
  if (state->opened) return Status();

  std::error_code ec;
  const bool dir_exists = std::filesystem::is_directory(dir_, ec) && !ec;
  if (!dir_exists) {
    if (!options_.create) {
      return Status(StatusCode::kNotFound,
                    "store directory " + dir_.string() + " does not exist");
    }
    std::filesystem::create_directories(dir_ / kObjectsDirName, ec);
    if (ec) {
      return Status(StatusCode::kIoError, "cannot create store at " +
                                              dir_.string() + ": " +
                                              ec.message());
    }
  }

  const std::filesystem::path index_path = dir_ / kIndexFileName;
  auto text = io::read_file_limited(index_path);
  if (text.has_value()) {
    Status loaded = load_index(*state, *text);
    if (loaded.ok()) {
      state->opened = true;
      return Status();
    }
    // Corrupt or stale index: fall through to a rebuild from the objects.
    state->stats.rebuilds += 1;
  } else if (text.status().code() == StatusCode::kNotFound) {
    // First open of this directory.  A fresh (empty) store is not a
    // recovery, so only count a rebuild when object files already exist.
    std::error_code probe;
    if (std::filesystem::is_directory(dir_ / kObjectsDirName, probe) &&
        !std::filesystem::is_empty(dir_ / kObjectsDirName, probe)) {
      state->stats.rebuilds += 1;
    }
  } else {
    return text.status();
  }

  Status rebuilt = rebuild(*state);
  if (!rebuilt.ok()) return rebuilt;
  Status persisted = write_index(*state);
  if (!persisted.ok()) return persisted;
  state->opened = true;
  return Status();
}

Result<std::string> ContentStore::get(const StoreKey& key) {
  auto state = state_.lock();
  if (!state->opened) {
    return Status(StatusCode::kInvalidArgument, "store not opened");
  }
  const auto it = state->index.find(key.id);
  if (it == state->index.end()) {
    state->stats.misses += 1;
    return Status(StatusCode::kNotFound, "store miss for " + key.id);
  }

  auto sealed = io::read_file_limited(entry_path(key));
  if (!sealed.has_value()) {
    if (sealed.status().code() == StatusCode::kNotFound) {
      // Index row without a backing file (e.g. a racing external delete):
      // drop the row and report a plain miss.
      state->total_bytes -= std::min(state->total_bytes, it->second.bytes);
      state->index.erase(it);
      state->stats.misses += 1;
      return Status(StatusCode::kNotFound, "store miss for " + key.id);
    }
    return sealed.status();
  }

  auto body = io::unseal_artifact(*sealed, kEntryFormat);
  if (!body.has_value()) {
    quarantine(*state, key.id);
    return Status(StatusCode::kCorrupt,
                  "store entry " + key.id +
                      " quarantined: " + body.status().message());
  }
  auto decoded = decode_entry_body(*body);
  if (!decoded.has_value()) {
    quarantine(*state, key.id);
    return Status(StatusCode::kCorrupt,
                  "store entry " + key.id +
                      " quarantined: " + decoded.status().message());
  }
  if (decoded->id != key.id) {
    // The file's self-declared id disagrees with its path: a spliced or
    // misplaced entry.  Never serve it.
    quarantine(*state, key.id);
    return Status(StatusCode::kCorrupt, "store entry " + key.id +
                                            " quarantined: body claims id " +
                                            decoded->id);
  }

  it->second.last_use = ++state->tick;
  state->stats.hits += 1;
  return std::move(decoded->payload);
}

Status ContentStore::put(const StoreKey& key, std::string_view payload) {
  auto state = state_.lock();
  if (!state->opened) {
    return Status(StatusCode::kInvalidArgument, "store not opened");
  }
  if (!valid_key_id(key.id)) {
    return Status(StatusCode::kInvalidArgument,
                  "invalid store key id '" + key.id + "'");
  }
  if (!valid_label(key.label)) {
    return Status(StatusCode::kInvalidArgument,
                  "invalid store key label '" + key.label + "'");
  }

  const std::string sealed =
      io::seal_artifact(kEntryFormat.magic, encode_entry_body(key, payload));
  Status written = io::write_file_atomic(entry_path(key), sealed);
  if (!written.ok()) return written;

  auto [it, inserted] = state->index.try_emplace(key.id);
  if (!inserted) {
    state->total_bytes -= std::min(state->total_bytes, it->second.bytes);
  }
  it->second.label = key.label;
  it->second.bytes = sealed.size();
  it->second.last_use = ++state->tick;
  state->total_bytes += sealed.size();
  state->stats.puts += 1;

  Status evicted = evict_until_within_budget(*state, key.id);
  if (!evicted.ok()) return evicted;
  return write_index(*state);
}

Status ContentStore::remove(const StoreKey& key) {
  auto state = state_.lock();
  if (!state->opened) {
    return Status(StatusCode::kInvalidArgument, "store not opened");
  }
  const auto it = state->index.find(key.id);
  if (it == state->index.end()) {
    return Status(StatusCode::kNotFound, "no store entry for " + key.id);
  }
  std::error_code ec;
  std::filesystem::remove(entry_path(key), ec);
  state->total_bytes -= std::min(state->total_bytes, it->second.bytes);
  state->index.erase(it);
  return write_index(*state);
}

Status ContentStore::flush_index() {
  const auto state = state_.lock();
  if (!state->opened) return Status();
  return write_index(*state);
}

Status ContentStore::rebuild_index() {
  auto state = state_.lock();
  if (!state->opened) {
    return Status(StatusCode::kInvalidArgument, "store not opened");
  }
  state->stats.rebuilds += 1;
  Status rebuilt = rebuild(*state);
  if (!rebuilt.ok()) return rebuilt;
  return write_index(*state);
}

StoreStats ContentStore::stats() const {
  const auto state = state_.lock();
  return state->stats;
}

std::size_t ContentStore::entry_count() const {
  const auto state = state_.lock();
  return state->index.size();
}

std::uint64_t ContentStore::total_bytes() const {
  const auto state = state_.lock();
  return state->total_bytes;
}

std::vector<StoreEntryInfo> ContentStore::entries() const {
  const auto state = state_.lock();
  std::vector<StoreEntryInfo> out;
  out.reserve(state->index.size());
  for (const auto& [id, entry] : state->index) {
    out.push_back(StoreEntryInfo{.id = id,
                                 .label = entry.label,
                                 .bytes = entry.bytes,
                                 .last_use = entry.last_use});
  }
  return out;
}

void ContentStore::flush_metrics(obs::MetricsShard* shard) const {
  if (shard == nullptr) return;
  const auto state = state_.lock();
  shard->add("store.hits", state->stats.hits);
  shard->add("store.misses", state->stats.misses);
  shard->add("store.puts", state->stats.puts);
  shard->add("store.evictions", state->stats.evictions);
  shard->add("store.quarantined", state->stats.quarantined);
  shard->add("store.rebuilds", state->stats.rebuilds);
  shard->add("store.bytes", state->total_bytes);
  shard->add("store.entries", state->index.size());
}

Status ContentStore::write_index(const State& state) {
  std::ostringstream body;
  body << "tick " << state.tick << '\n';
  for (const auto& [id, entry] : state.index) {
    body << "entry " << id << ' ' << entry.bytes << ' ' << entry.last_use
         << ' ' << entry.label << '\n';
  }
  return io::write_file_atomic(
      dir_ / kIndexFileName,
      io::seal_artifact(kIndexFormat.magic, body.str()));
}

Status ContentStore::load_index(State& state, const std::string& text) {
  auto body = io::unseal_artifact(text, kIndexFormat);
  if (!body.has_value()) return body.status();

  const auto corrupt = [](std::string why) {
    return Status(StatusCode::kCorrupt, "store index: " + std::move(why));
  };
  std::map<std::string, IndexEntry> parsed;
  std::uint64_t parsed_tick = 0;
  std::uint64_t parsed_bytes = 0;
  bool saw_tick = false;

  std::istringstream lines(*body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto tokens = split_tokens(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "tick") {
      if (saw_tick || tokens.size() != 2 ||
          !parse_u64(tokens[1], &parsed_tick)) {
        return corrupt("bad tick line");
      }
      saw_tick = true;
      continue;
    }
    if (tokens[0] != "entry" || tokens.size() != 5) {
      return corrupt("unrecognized line '" + line + "'");
    }
    if (!valid_key_id(tokens[1])) return corrupt("bad entry id");
    IndexEntry entry;
    if (!parse_u64(tokens[2], &entry.bytes) ||
        !parse_u64(tokens[3], &entry.last_use)) {
      return corrupt("bad entry numbers");
    }
    if (!valid_label(tokens[4])) return corrupt("bad entry label");
    entry.label = std::string(tokens[4]);
    if (entry.last_use > parsed_tick) return corrupt("entry tick beyond clock");
    parsed_bytes += entry.bytes;
    if (!parsed.emplace(std::string(tokens[1]), std::move(entry)).second) {
      return corrupt("duplicate entry id");
    }
  }
  if (!saw_tick) return corrupt("missing tick line");

  state.index = std::move(parsed);
  state.tick = parsed_tick;
  state.total_bytes = parsed_bytes;
  return Status();
}

Status ContentStore::rebuild(State& state) {
  // Wall-clock observer only (tbp-prof); never affects rebuild results.
  prof::ScopedSpan span(options_.prof, "store.rebuild");
  state.index.clear();
  state.total_bytes = 0;
  state.tick = 0;

  const std::filesystem::path objects = dir_ / kObjectsDirName;
  std::error_code ec;
  if (!std::filesystem::is_directory(objects, ec) || ec) {
    std::filesystem::create_directories(objects, ec);
    if (ec) {
      return Status(StatusCode::kIoError, "cannot create " + objects.string() +
                                              ": " + ec.message());
    }
    return Status();
  }

  // Collect the scan up front and sort it, so quarantine/adoption order is a
  // deterministic function of the directory contents.
  std::vector<std::filesystem::path> files;
  for (const auto& shard :
       std::filesystem::directory_iterator(objects, ec)) {
    if (ec) break;
    if (!shard.is_directory()) continue;
    std::error_code inner;
    for (const auto& file :
         std::filesystem::directory_iterator(shard.path(), inner)) {
      if (inner) break;
      if (file.is_regular_file()) files.push_back(file.path());
    }
  }
  std::sort(files.begin(), files.end());

  for (const std::filesystem::path& path : files) {
    const std::string name = path.filename().string();
    const std::string shard = path.parent_path().filename().string();
    if (name.find(".tmp.") != std::string::npos) {
      // Leftover from a writer that died between temp-write and rename.
      std::error_code ignore;
      std::filesystem::remove(path, ignore);
      continue;
    }
    const auto drop = [&] {
      std::error_code ignore;
      std::filesystem::remove(path, ignore);
      state.stats.quarantined += 1;
    };
    const std::string suffix(kEntrySuffix);
    if (shard.size() != 2 || name.size() != 30 + suffix.size() ||
        name.substr(30) != suffix) {
      drop();
      continue;
    }
    const std::string id = shard + name.substr(0, 30);
    if (!valid_key_id(id)) {
      drop();
      continue;
    }
    auto sealed = io::read_file_limited(path);
    if (!sealed.has_value()) {
      drop();
      continue;
    }
    auto body = io::unseal_artifact(*sealed, kEntryFormat);
    if (!body.has_value()) {
      drop();
      continue;
    }
    auto decoded = decode_entry_body(*body);
    if (!decoded.has_value() || decoded->id != id) {
      drop();
      continue;
    }
    IndexEntry entry;
    entry.label = decoded->label;
    entry.bytes = sealed->size();
    entry.last_use = 0;
    state.total_bytes += entry.bytes;
    state.index.emplace(id, std::move(entry));
  }
  return Status();
}

void ContentStore::quarantine(State& state, const std::string& id) {
  const auto it = state.index.find(id);
  if (it != state.index.end()) {
    state.total_bytes -= std::min(state.total_bytes, it->second.bytes);
    state.index.erase(it);
  }
  std::error_code ec;
  std::filesystem::remove(
      dir_ / kObjectsDirName / id.substr(0, 2) /
          (id.substr(2) + std::string(kEntrySuffix)),
      ec);
  state.stats.quarantined += 1;
  // Persist eagerly so a crash right after the quarantine does not leave an
  // index row pointing at the deleted file.  Best-effort: the next open
  // rebuilds if this write fails.
  (void)write_index(state);
}

Status ContentStore::evict_until_within_budget(State& state,
                                               const std::string& keep_id) {
  // Span only when there is GC work: a within-budget put should not flood
  // the store.evict histogram with no-op calls.
  prof::ScopedSpan span(
      state.total_bytes > options_.max_bytes ? options_.prof : nullptr,
      "store.evict");
  while (state.total_bytes > options_.max_bytes && state.index.size() > 1) {
    // Victim: least-recently-used entry, ties broken by key id (std::map
    // iteration order), never the entry just written.
    auto victim = state.index.end();
    for (auto it = state.index.begin(); it != state.index.end(); ++it) {
      if (it->first == keep_id) continue;
      if (victim == state.index.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == state.index.end()) break;
    std::error_code ec;
    std::filesystem::remove(
        dir_ / kObjectsDirName / victim->first.substr(0, 2) /
            (victim->first.substr(2) + std::string(kEntrySuffix)),
        ec);
    state.total_bytes -= std::min(state.total_bytes, victim->second.bytes);
    state.index.erase(victim);
    state.stats.evictions += 1;
  }
  return Status();
}

}  // namespace tbp::store
