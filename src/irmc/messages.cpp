#include "irmc/messages.hpp"

namespace spider::irmc {

namespace {
void put_digest(Writer& w, const Sha256Digest& d) { w.raw(BytesView(d.data(), d.size())); }

Sha256Digest get_digest(Reader& r) {
  BytesView v = r.raw(32);
  Sha256Digest d;
  std::copy(v.begin(), v.end(), d.begin());
  return d;
}

constexpr std::size_t kPairSize = 8 + 8;      // (sc, p)
constexpr std::size_t kMinShareSize = 4 + 4;  // index + signature length prefix

Bytes encode_positions(MsgType type, const PositionList& list) {
  Writer w(1 + 4 + kPairSize * list.size());
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(list.size()));
  for (const auto& [sc, p] : list) {
    w.u64(sc);
    w.u64(p);
  }
  return std::move(w).take();
}

PositionList decode_positions(Reader& r) {
  PositionList list;
  std::uint32_t n = r.count(kPairSize);
  list.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Subchannel sc = r.u64();
    Position p = r.u64();
    if (!list.empty() && sc <= list.back().first) {
      throw SerdeError("subchannels out of order");
    }
    list.emplace_back(sc, p);
  }
  return list;
}
}  // namespace

Bytes SendMsg::encode() const {
  Writer w(1 + 8 + 8 + 4 + payload.size());
  w.u8(static_cast<std::uint8_t>(MsgType::Send));
  w.u64(sc);
  w.u64(p);
  w.bytes(payload);
  return std::move(w).take();
}

SendMsg SendMsg::decode(Reader& r) {
  SendMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes();
  return m;
}

SendMsgView SendMsgView::decode(Reader& r) {
  SendMsgView m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes_view();
  return m;
}

Bytes MoveMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Move));
  w.u64(sc);
  w.u64(p);
  return std::move(w).take();
}

MoveMsg MoveMsg::decode(Reader& r) {
  MoveMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  return m;
}

Bytes NackMsg::encode() const { return encode_positions(MsgType::Nack, stalled); }

NackMsg NackMsg::decode(Reader& r) { return NackMsg{decode_positions(r)}; }

Bytes WindowsMsg::encode() const { return encode_positions(MsgType::Windows, windows); }

WindowsMsg WindowsMsg::decode(Reader& r) { return WindowsMsg{decode_positions(r)}; }

Bytes SigShareMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::SigShare));
  w.u64(sc);
  w.u64(p);
  put_digest(w, digest);
  return std::move(w).take();
}

SigShareMsg SigShareMsg::decode(Reader& r) {
  SigShareMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  m.digest = get_digest(r);
  return m;
}

Bytes CertificateMsg::encode() const {
  std::size_t hint = 1 + 8 + 8 + 4 + payload.size() + 4;
  for (const auto& [idx, sig] : shares) hint += 4 + 4 + sig.size();
  Writer w(hint);
  w.u8(static_cast<std::uint8_t>(MsgType::Certificate));
  w.u64(sc);
  w.u64(p);
  w.bytes(payload);
  w.u32(static_cast<std::uint32_t>(shares.size()));
  for (const auto& [idx, sig] : shares) {
    w.u32(idx);
    w.bytes(sig);
  }
  return std::move(w).take();
}

CertificateMsg CertificateMsg::decode(Reader& r) {
  CertificateMsg m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes();
  std::uint32_t n = r.count(kMinShareSize);
  m.shares.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t idx = r.u32();
    m.shares.emplace_back(idx, r.bytes());
  }
  return m;
}

CertificateMsgView CertificateMsgView::decode(Reader& r) {
  CertificateMsgView m;
  m.sc = r.u64();
  m.p = r.u64();
  m.payload = r.bytes_view();
  std::uint32_t n = r.count(kMinShareSize);
  m.shares.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t idx = r.u32();
    m.shares.emplace_back(idx, r.bytes_view());
  }
  return m;
}

Bytes ProgressMsg::encode() const { return encode_positions(MsgType::Progress, progress); }

ProgressMsg ProgressMsg::decode(Reader& r) { return ProgressMsg{decode_positions(r)}; }

Bytes SelectMsg::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::Select));
  w.u64(sc);
  w.u32(collector);
  return std::move(w).take();
}

SelectMsg SelectMsg::decode(Reader& r) {
  SelectMsg m;
  m.sc = r.u64();
  m.collector = r.u32();
  return m;
}

}  // namespace spider::irmc
