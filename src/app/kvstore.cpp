#include "app/kvstore.hpp"

#include <iterator>

namespace spider {

Bytes kv_reply(bool ok, BytesView body) {
  return codec::encode(KvReplyMsg{static_cast<std::uint8_t>(ok ? 1 : 0), body});
}

Bytes kv_put(const std::string& key, BytesView value) {
  return codec::encode(KvOp::Put, KvKeyOp{key, value});
}
Bytes kv_get(const std::string& key) { return codec::encode(KvOp::Get, KvKeyOp{key, {}}); }
Bytes kv_del(const std::string& key) { return codec::encode(KvOp::Del, KvKeyOp{key, {}}); }
Bytes kv_size() { return codec::encode(KvOp::Size, KvKeyOp{}); }

Bytes kv_mget(const std::vector<std::string>& keys) {
  return codec::encode(KvOp::MGet, KvMGetOp{keys});
}

Bytes kv_mput(const std::vector<std::pair<std::string, Bytes>>& pairs) {
  KvMPutOp m;
  m.pairs.reserve(pairs.size());
  for (const auto& [k, v] : pairs) m.pairs.emplace_back(k, v);
  return codec::encode(KvOp::MPut, m);
}

KvParsedOp kv_parse_op(BytesView op, bool with_values) {
  Reader r(op);
  KvParsedOp out;
  codec::read(r, out.kind);  // an undefined opcode throws here
  const BytesView fields = r.raw(r.remaining());
  auto value = [&](BytesView v) {
    if (with_values) out.values.push_back(to_bytes(v));
  };
  switch (out.kind) {
    case KvOp::Put:
    case KvOp::Get:
    case KvOp::Del:
    case KvOp::Size: {
      KvKeyOp m = codec::decode<KvKeyOp>(fields);
      if (out.kind == KvOp::Size) break;
      out.keys.push_back(std::move(m.key));
      if (out.kind == KvOp::Put) value(m.value);
      break;
    }
    case KvOp::MGet: out.keys = codec::decode<KvMGetOp>(fields).keys; break;
    case KvOp::MPut: {
      for (auto& [key, v] : codec::decode<KvMPutOp>(fields).pairs) {
        out.keys.push_back(std::move(key));
        value(v);
      }
      break;
    }
  }
  return out;
}

KvReply kv_decode_reply(BytesView reply) {
  const auto frame = codec::decode<KvReplyMsg>(reply);
  return {frame.status == 1, to_bytes(frame.body)};
}

KvMputReply kv_decode_mput_reply(BytesView reply) {
  const auto frame = codec::decode<KvReplyMsg>(reply);
  KvMputReply out = codec::decode<KvMputReply>(frame.body);
  out.ok = frame.status == 1;
  return out;
}

KvMgetReply kv_decode_mget_reply(BytesView reply) {
  return codec::decode<KvMgetReply>(codec::decode<KvReplyMsg>(reply).body);
}

Bytes KvStore::apply(BytesView op, Mode mode) {
  const bool allow_mutation = mode == Mode::Mutate;
  // Only mutations keep the values they carry.
  KvParsedOp p = kv_parse_op(op, /*with_values=*/allow_mutation);
  auto& data = state_.data;

  switch (p.kind) {
    case KvOp::Put: {
      if (!allow_mutation) return kv_reply(false);
      data[p.keys[0]] = std::move(p.values[0]);
      ++state_.version;
      return kv_reply(true);
    }
    case KvOp::Get: {
      auto it = data.find(p.keys[0]);
      if (it == data.end()) return kv_reply(false);
      return kv_reply(true, it->second);
    }
    case KvOp::Del: {
      if (!allow_mutation) return kv_reply(false);
      bool existed = data.erase(p.keys[0]) > 0;
      ++state_.version;
      return kv_reply(existed);
    }
    case KvOp::Size: return kv_reply(true, codec::encode(std::uint64_t{data.size()}));
    case KvOp::MGet: {
      // Ordered MGets report the shard's mutation count for read-your-writes
      // checks (every replica reads at the same logical position). The weak
      // fast path reports 0: replicas answering at different commit
      // positions would otherwise never produce the fe+1 byte-identical
      // replies the client quorum needs while *any* key on the shard is
      // being written.
      KvMgetReply out{mode == Mode::WeakRead ? 0 : state_.version, {}};
      out.entries.reserve(p.keys.size());
      for (const std::string& key : p.keys) {
        auto it = data.find(key);
        out.entries.push_back(it != data.end() ? KvReply{true, it->second} : KvReply{});
      }
      return kv_reply(true, codec::encode(out));
    }
    case KvOp::MPut: {
      if (!allow_mutation) return kv_reply(false);
      for (std::size_t i = 0; i < p.keys.size(); ++i) data[p.keys[i]] = std::move(p.values[i]);
      ++state_.version;  // one ordered mutation, regardless of key count
      return kv_reply(true, codec::encode(KvMputReply{true, state_.version}));
    }
  }
  throw SerdeError("unknown KV opcode");
}

Bytes KvStore::execute(BytesView op) { return apply(op, Mode::Mutate); }

Bytes KvStore::execute_readonly(BytesView op) const {
  // const_cast is safe: apply() in a read mode never writes.
  return const_cast<KvStore*>(this)->apply(op, Mode::OrderedRead);
}

Bytes KvStore::execute_weak(BytesView op) const {
  return const_cast<KvStore*>(this)->apply(op, Mode::WeakRead);
}

Bytes KvStore::snapshot() const {
  Writer w;
  codec::write(w, state_);
  return std::move(w).take();
}

void KvStore::restore(BytesView snapshot) { state_ = codec::decode<KvImage>(snapshot); }

std::unique_ptr<Application> KvStore::clone_empty() const { return std::make_unique<KvStore>(); }

std::vector<std::string> KvStore::op_keys(BytesView op) const {
  try {
    return kv_parse_op(op, /*with_values=*/false).keys;
  } catch (const SerdeError&) {
    return {};  // not a KV op (system op, garbage): not key-addressed
  }
}

Bytes KvStore::extract_keys(const std::function<bool(std::string_view)>& moved) {
  // The range is an ordered map, so the extracted byte string is identical
  // across replicas in the same state — it must be, because fe+1 replicas
  // reply with it and the migration driver needs matching replies.
  KvRange range;
  auto& data = state_.data;
  for (auto it = data.begin(); it != data.end();) {
    auto next = std::next(it);
    if (moved(it->first)) range.entries.insert(range.entries.end(), data.extract(it));
    it = next;
  }
  ++state_.version;  // the cut is a mutation: shard_seq must advance deterministically
  return codec::encode(range);
}

void KvStore::absorb_keys(BytesView state) {
  KvRange range = codec::decode<KvRange>(state);
  for (auto& [key, value] : range.entries) state_.data[key] = std::move(value);
  ++state_.version;
}

}  // namespace spider
