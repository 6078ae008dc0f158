// IRMC wire messages (paper Appendix A.8 / A.9). Each lists its fields once
// (common/codec.hpp); the MsgType byte goes in front of them.
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/ids.hpp"
#include "crypto/sha256.hpp"

namespace spider::irmc {

enum class MsgType : std::uint8_t {
  Send = 1,         // RC: <Send, m, sc, p> signed by sender
  Move = 2,         // both: <Move, sc, p> MAC'd, either direction
  SigShare = 3,     // SC: <SigShare, h(m), sc, p> signed, sender-group internal
  Certificate = 4,  // SC: <Certificate, m, sc, p, shares> MAC'd by collector
  Progress = 5,     // SC: <Progress, {sc: p}> MAC'd, sender -> receivers
  Select = 6,       // SC: <Select, sc, collector> MAC'd, receiver -> senders
  Nack = 7,         // RC: <Nack, {sc: p}> MAC'd, receiver asks for retransmission
  Windows = 8,      // RC: <Windows, {sc: p}> MAC'd, sender's answer to a Nack
  SendMove = 9,     // RC: a Send whose sender also moves its window on sc to p
};

/// (subchannel, position) pairs: SC's Progress and RC's Nack / Windows.
/// Subchannels strictly ascend on the wire (every sender lists them from
/// an ordered map); decode rejects anything else, so one frame cannot name
/// a subchannel twice, e.g. to ask for the same replays again.
using PositionList = std::vector<std::pair<Subchannel, Position>>;

inline void check_ascending(const PositionList& list) {
  for (std::size_t i = 1; i < list.size(); ++i) {
    if (list[i].first <= list[i - 1].first) throw SerdeError("subchannels out of order");
  }
}

/// Send and SendMove (a Send whose sender also moves its window on sc to
/// p): one body, only the type byte differs. SendMsgView decodes zero-copy:
/// `payload` stays a view into the wire buffer (valid only while the buffer
/// lives — capture() it to retain).
template <class B>
struct BasicSendMsg {
  Subchannel sc = 0;
  Position p = 0;
  B payload;
  static auto fields(auto& m, auto&& f) { return f(m.sc, m.p, m.payload); }
};
using SendMsg = BasicSendMsg<Bytes>;
using SendMsgView = BasicSendMsg<BytesView>;

struct MoveMsg {
  Subchannel sc = 0;
  Position p = 0;
  static auto fields(auto& m, auto&& f) { return f(m.sc, m.p); }
};

/// RC: one frame per nack tick and sender, listing the first missing
/// position of every stalled subchannel.
struct NackMsg {
  PositionList stalled;
  static auto fields(auto& m, auto&& f) { return f(m.stalled); }
  void validate() const { check_ascending(stalled); }
};

/// RC: a sender's answer to a Nack, one window statement per nacked
/// subchannel (same order); the receiver applies each like a single Move.
struct WindowsMsg {
  PositionList windows;
  static auto fields(auto& m, auto&& f) { return f(m.windows); }
  void validate() const { check_ascending(windows); }
};

struct SigShareMsg {
  Subchannel sc = 0;
  Position p = 0;
  Sha256Digest digest{};
  static auto fields(auto& m, auto&& f) { return f(m.sc, m.p, m.digest); }
};

/// fs+1 (sender index, signature over that sender's SigShare bytes).
/// CertificateMsgView decodes zero-copy: payload and share signatures stay
/// views into the wire buffer.
template <class B>
struct BasicCertificateMsg {
  Subchannel sc = 0;
  Position p = 0;
  B payload;
  std::vector<std::pair<std::uint32_t, B>> shares;
  static auto fields(auto& m, auto&& f) { return f(m.sc, m.p, m.payload, m.shares); }
};
using CertificateMsg = BasicCertificateMsg<Bytes>;
using CertificateMsgView = BasicCertificateMsg<BytesView>;

struct ProgressMsg {
  PositionList progress;
  static auto fields(auto& m, auto&& f) { return f(m.progress); }
  void validate() const { check_ascending(progress); }
};

struct SelectMsg {
  Subchannel sc = 0;
  std::uint32_t collector = 0;  // sender index chosen as collector
  static auto fields(auto& m, auto&& f) { return f(m.sc, m.collector); }
};

}  // namespace spider::irmc
