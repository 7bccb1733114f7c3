#include "runtime/snapshot.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/crc32.h"

namespace cryptopim::runtime {

namespace fs = std::filesystem;

namespace {

std::string crc_hex(std::uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return std::string(buf);
}

}  // namespace

std::string write_snapshot(const std::string& dir, std::uint64_t index,
                           const obs::Json& state, std::uint32_t* state_crc) {
  const std::string state_text = state.dump();
  const std::uint32_t crc = obs::crc32(state_text);
  if (state_crc != nullptr) *state_crc = crc;

  obs::Json doc = obs::Json::object();
  doc.set("schema", "snapshot/1");
  doc.set("index", index);
  doc.set("crc", crc_hex(crc));
  doc.set("state", state);

  const std::string base = "snap-" + std::to_string(index) + ".json";
  const fs::path final_path = fs::path(dir) / base;
  const fs::path tmp_path = fs::path(dir) / (base + ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("snapshot: cannot write " + tmp_path.string());
    }
    out << doc.dump() << '\n';
    out.flush();
    if (!out) {
      throw std::runtime_error("snapshot: write failed " + tmp_path.string());
    }
  }
  fs::rename(tmp_path, final_path);
  return base;
}

std::string u64_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

SnapshotLoadResult load_snapshot(const std::string& path) {
  SnapshotLoadResult res;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    res.error = "cannot open " + path;
    return res;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const obs::JsonParseResult parsed = obs::parse_json(text);
  if (!parsed.ok) {
    res.error = path + ": " + parsed.error;
    return res;
  }
  const obs::Json& doc = parsed.value;
  if (!doc.is_object() || !doc.contains("schema") ||
      doc.at("schema").as_string() != "snapshot/1") {
    res.error = path + ": not a snapshot/1 document";
    return res;
  }
  if (!doc.contains("index") || !doc.contains("crc") ||
      !doc.contains("state") || !doc.at("state").is_object()) {
    res.error = path + ": missing index/crc/state";
    return res;
  }
  const std::string& crc_str = doc.at("crc").as_string();
  if (crc_str.size() != 8) {
    res.error = path + ": malformed crc";
    return res;
  }
  std::uint32_t crc = 0;
  for (const char c : crc_str) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else { res.error = path + ": malformed crc"; return res; }
    crc = (crc << 4) | static_cast<std::uint32_t>(digit);
  }
  res.ok = true;
  res.index = doc.at("index").as_u64();
  res.crc = crc;
  res.state = doc.at("state");
  return res;
}

SnapshotLoadResult load_latest_snapshot(const std::string& dir) {
  SnapshotLoadResult best;
  best.error = "no valid snapshot in " + dir;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) != 0) continue;
    if (name.size() < 11 || name.substr(name.size() - 5) != ".json") continue;
    SnapshotLoadResult cand = load_snapshot(entry.path().string());
    if (cand.ok && (!best.ok || cand.index > best.index)) {
      best = std::move(cand);
    }
  }
  if (ec) best.error = "cannot scan " + dir + ": " + ec.message();
  return best;
}

bool snapshot_state_matches(const obs::Json& state,
                            std::uint32_t expected_crc) {
  return obs::crc32(state.dump()) == expected_crc;
}

}  // namespace cryptopim::runtime
