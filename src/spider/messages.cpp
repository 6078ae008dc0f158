#include "spider/messages.hpp"

#include <algorithm>

namespace spider {

Bytes ClientRequest::encode() const {
  Writer w(1 + 4 + 8 + 4 + op.size());
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(client);
  w.u64(counter);
  w.bytes(op);
  return std::move(w).take();
}

ClientRequest ClientRequest::decode(Reader& r) {
  ClientRequest m;
  const std::uint8_t kind = r.u8();
  // An undefined kind would fall through to the write path everywhere.
  if (kind < static_cast<std::uint8_t>(OpKind::Write) ||
      kind > static_cast<std::uint8_t>(OpKind::Reconfig)) {
    throw SerdeError("unknown op kind");
  }
  m.kind = static_cast<OpKind>(kind);
  m.client = r.u32();
  m.counter = r.u64();
  m.op = r.bytes();
  return m;
}

Bytes ClientFrame::encode() const {
  Writer w;
  w.bytes(req.encode());
  w.bytes(signature);
  return std::move(w).take();
}

ClientFrame ClientFrame::decode(Reader& r) {
  ClientFrame m;
  Reader rr(r.bytes_view());
  m.req = ClientRequest::decode(rr);
  m.signature = r.bytes();
  return m;
}

Bytes RequestMsg::encode() const {
  Writer w;
  w.bytes(frame.encode());
  w.u32(origin);
  return std::move(w).take();
}

RequestMsg RequestMsg::decode(Reader& r) {
  RequestMsg m;
  Reader fr(r.bytes_view());
  m.frame = ClientFrame::decode(fr);
  m.origin = r.u32();
  return m;
}

Bytes ExecuteMsg::encode() const {
  Writer w(1 + 8 + 4 + 4 + 8 + 1 + 4 + op.size());
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(seq);
  w.u32(origin);
  w.u32(client);
  w.u64(counter);
  w.u8(static_cast<std::uint8_t>(op_kind));
  w.bytes(op);
  return std::move(w).take();
}

ExecuteMsg ExecuteMsg::decode(Reader& r) {
  ExecuteMsg m;
  m.kind = static_cast<ExecuteKind>(r.u8());
  m.seq = r.u64();
  m.origin = r.u32();
  m.client = r.u32();
  m.counter = r.u64();
  m.op_kind = static_cast<OpKind>(r.u8());
  m.op = r.bytes();
  return m;
}

Bytes ExecuteBatchMsg::encode() const {
  std::size_t hint = 4;
  for (const ExecuteMsg& x : items) hint += 4 + 30 + x.op.size();
  Writer w(hint);
  w.u32(static_cast<std::uint32_t>(items.size()));
  for (const ExecuteMsg& x : items) w.bytes(x.encode());
  return std::move(w).take();
}

ExecuteBatchMsg ExecuteBatchMsg::decode(Reader& r) {
  ExecuteBatchMsg m;
  std::uint32_t n = r.u32();
  if (n == 0) throw SerdeError("empty execute batch");
  m.items.reserve(std::min<std::uint32_t>(n, 1024));
  for (std::uint32_t i = 0; i < n; ++i) {
    Reader xr(r.bytes_view());
    m.items.push_back(ExecuteMsg::decode(xr));
  }
  return m;
}

Bytes ReplyMsg::encode() const {
  Writer w(8 + 4 + result.size() + 1);
  w.u64(counter);
  w.bytes(result);
  w.boolean(weak);
  return std::move(w).take();
}

ReplyMsg ReplyMsg::decode(Reader& r) {
  ReplyMsg m;
  m.counter = r.u64();
  m.result = r.bytes();
  m.weak = r.boolean();
  return m;
}

Bytes ReconfigCmd::encode() const {
  Writer w;
  w.boolean(add);
  w.u32(group);
  w.u8(static_cast<std::uint8_t>(region));
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (NodeId n : members) w.u32(n);
  return std::move(w).take();
}

ReconfigCmd ReconfigCmd::decode(Reader& r) {
  ReconfigCmd m;
  m.add = r.boolean();
  m.group = r.u32();
  m.region = static_cast<Region>(r.u8());
  std::uint32_t n = r.count(sizeof(NodeId));
  m.members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.members.push_back(r.u32());
  return m;
}

void RegistryEntry::encode_into(Writer& w) const {
  w.u32(group);
  w.u8(static_cast<std::uint8_t>(region));
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (NodeId n : members) w.u32(n);
}

RegistryEntry RegistryEntry::decode(Reader& r) {
  RegistryEntry m;
  m.group = r.u32();
  m.region = static_cast<Region>(r.u8());
  std::uint32_t n = r.count(sizeof(NodeId));
  m.members.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.members.push_back(r.u32());
  return m;
}

Bytes RegistrySnapshot::encode() const {
  Writer w;
  w.u64(version);
  w.u32(static_cast<std::uint32_t>(groups.size()));
  for (const RegistryEntry& g : groups) g.encode_into(w);
  return std::move(w).take();
}

RegistrySnapshot RegistrySnapshot::decode(Reader& r) {
  RegistrySnapshot m;
  m.version = r.u64();
  std::uint32_t n = r.count(4 + 1 + 4);  // smallest entry: group, region, no members
  m.groups.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) m.groups.push_back(RegistryEntry::decode(r));
  return m;
}

}  // namespace spider
