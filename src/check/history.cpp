#include "check/history.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include "common/hex.hpp"
#include "common/serde.hpp"
#include "sim/world.hpp"

namespace spider {

const char* hist_op_name(HistOp op) {
  switch (op) {
    case HistOp::Put: return "put";
    case HistOp::Del: return "del";
    case HistOp::StrongGet: return "get";
    case HistOp::WeakGet: return "weak-get";
  }
  return "?";
}

HistoryRecorder::OpId HistoryRecorder::invoke(std::uint64_t client, HistOp kind,
                                              std::string key, Bytes arg) {
  RecordedOp op;
  op.client = client;
  op.kind = kind;
  op.key = std::move(key);
  op.arg = std::move(arg);
  op.invoke = world_.now();
  ops_.push_back(std::move(op));
  return ops_.size() - 1;
}

void HistoryRecorder::respond(OpId id, bool ok, Bytes result) {
  RecordedOp& op = ops_.at(id);
  if (op.responded) return;  // double completion would be a client bug
  op.responded = true;
  op.respond = world_.now();
  op.ok = ok;
  op.result = std::move(result);
}

void HistoryRecorder::attribute_shard(OpId id, std::uint32_t shard) {
  ops_.at(id).shard = shard;
}

std::size_t HistoryRecorder::pending_count() const {
  std::size_t n = 0;
  for (const RecordedOp& op : ops_) {
    if (!op.responded) ++n;
  }
  return n;
}

std::vector<std::string> HistoryRecorder::keys() const {
  std::vector<std::string> out;
  for (const RecordedOp& op : ops_) out.push_back(op.key);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Bytes serialize_ops(const std::vector<RecordedOp>& ops) {
  // Unattributed histories keep the pre-resharding byte format (goldens and
  // archived failure artifacts stay valid); any shard attribution switches to
  // the v2 layout, flagged by a count-position sentinel no v1 history can
  // produce (a count of 2^32-1 ops would never fit in memory).
  const bool attributed = std::any_of(ops.begin(), ops.end(), [](const RecordedOp& op) {
    return op.shard != kShardUnattributed;
  });
  Writer w;
  if (attributed) w.u32(0xffffffffu);
  w.u32(static_cast<std::uint32_t>(ops.size()));
  for (const RecordedOp& op : ops) {
    w.u64(op.client);
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.bytes(to_bytes(op.key));
    w.bytes(op.arg);
    w.u64(static_cast<std::uint64_t>(op.invoke));
    w.u64(static_cast<std::uint64_t>(op.respond));
    w.boolean(op.responded);
    w.boolean(op.ok);
    w.bytes(op.result);
    if (attributed) w.u32(op.shard);
  }
  return std::move(w).take();
}

Bytes HistoryRecorder::serialize() const { return serialize_ops(ops_); }

namespace {
// Hex fields may be empty; "-" keeps the token stream aligned.
std::string hex_token(BytesView v) { return v.empty() ? "-" : to_hex(v); }

Bytes parse_hex_token(const std::string& tok) {
  return tok == "-" ? Bytes{} : from_hex(tok);
}
}  // namespace

std::string serialize_ops_text(const std::vector<RecordedOp>& ops) {
  std::ostringstream out;
  for (const RecordedOp& op : ops) {
    out << "op " << op.client << " " << static_cast<unsigned>(op.kind) << " "
        << hex_token(to_bytes(op.key)) << " " << hex_token(op.arg) << " " << op.invoke << " "
        << op.respond << " " << (op.responded ? 1 : 0) << " " << (op.ok ? 1 : 0) << " "
        << hex_token(op.result);
    if (op.shard != kShardUnattributed) out << " " << op.shard;
    out << "\n";
  }
  return out.str();
}

std::string HistoryRecorder::serialize_text() const { return serialize_ops_text(ops_); }

std::vector<RecordedOp> parse_history_text(const std::string& text) {
  std::vector<RecordedOp> ops;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag, key_hex, arg_hex, result_hex, shard, rest;
    unsigned kind = 0;
    int responded = 0, ok = 0;
    RecordedOp op;
    // Accept only lines serialize_ops_text could have written: a defined
    // kind, 0/1 flags and at most one numeric shard token (sharded runs)
    // after the result, with nothing after it.
    bool valid = (ls >> tag >> op.client >> kind >> key_hex >> arg_hex >> op.invoke >>
                  op.respond >> responded >> ok >> result_hex) &&
                 tag == "op" && kind >= static_cast<unsigned>(HistOp::Put) &&
                 kind <= static_cast<unsigned>(HistOp::WeakGet) &&
                 (responded == 0 || responded == 1) && (ok == 0 || ok == 1);
    if (valid && ls >> shard) {
      const char* end = shard.data() + shard.size();
      const auto [ptr, ec] = std::from_chars(shard.data(), end, op.shard);
      valid = ec == std::errc{} && ptr == end && !(ls >> rest);
    }
    if (!valid) {
      throw std::invalid_argument("history text line " + std::to_string(lineno) +
                                  " malformed: " + line);
    }
    op.kind = static_cast<HistOp>(kind);
    op.key = to_string(parse_hex_token(key_hex));
    op.arg = parse_hex_token(arg_hex);
    op.responded = responded != 0;
    op.ok = ok != 0;
    op.result = parse_hex_token(result_hex);
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string HistoryRecorder::dump() const {
  std::string out;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const RecordedOp& op = ops_[i];
    out += "#" + std::to_string(i) + " c" + std::to_string(op.client) + " " +
           hist_op_name(op.kind) + "(" + op.key;
    if (op.kind == HistOp::Put) out += ", \"" + to_string(op.arg) + "\"";
    out += ") inv=" + std::to_string(op.invoke);
    if (op.shard != kShardUnattributed) out += " s" + std::to_string(op.shard);
    if (op.responded) {
      out += " resp=" + std::to_string(op.respond);
      out += op.ok ? " ok" : " miss";
      if (!op.is_write()) out += " -> \"" + to_string(op.result) + "\"";
    } else {
      out += " PENDING";
    }
    out += "\n";
  }
  return out;
}

}  // namespace spider
