// IRMC wire messages (paper Appendix A.8 / A.9).
#pragma once

#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/serde.hpp"
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

struct SendMsg {
  Subchannel sc = 0;
  Position p = 0;
  Bytes payload;
  /// Encode as a SendMove: same body, only the type byte differs.
  bool move = false;

  Bytes encode() const;
  static SendMsg decode(Reader& r);
};

/// Zero-copy decode of a SendMsg: `payload` stays a view into the wire
/// buffer (valid only while the buffer lives — capture() it to retain).
struct SendMsgView {
  Subchannel sc = 0;
  Position p = 0;
  BytesView payload;

  static SendMsgView decode(Reader& r);
};

struct MoveMsg {
  Subchannel sc = 0;
  Position p = 0;

  Bytes encode() const;
  static MoveMsg decode(Reader& r);
};

/// RC: one frame per nack tick and sender, listing the first missing
/// position of every stalled subchannel.
struct NackMsg {
  PositionList stalled;

  Bytes encode() const;
  static NackMsg decode(Reader& r);
};

/// RC: a sender's answer to a Nack, one window statement per nacked
/// subchannel (same order); the receiver applies each like a single Move.
struct WindowsMsg {
  PositionList windows;

  Bytes encode() const;
  static WindowsMsg decode(Reader& r);
};

struct SigShareMsg {
  Subchannel sc = 0;
  Position p = 0;
  Sha256Digest digest{};

  Bytes encode() const;
  static SigShareMsg decode(Reader& r);
};

struct CertificateMsg {
  Subchannel sc = 0;
  Position p = 0;
  Bytes payload;
  /// fs+1 (sender index, signature over that sender's SigShare bytes).
  std::vector<std::pair<std::uint32_t, Bytes>> shares;

  Bytes encode() const;
  static CertificateMsg decode(Reader& r);
};

/// Zero-copy decode of a CertificateMsg: payload and share signatures stay
/// views into the wire buffer.
struct CertificateMsgView {
  Subchannel sc = 0;
  Position p = 0;
  BytesView payload;
  std::vector<std::pair<std::uint32_t, BytesView>> shares;

  static CertificateMsgView decode(Reader& r);
};

struct ProgressMsg {
  PositionList progress;

  Bytes encode() const;
  static ProgressMsg decode(Reader& r);
};

struct SelectMsg {
  Subchannel sc = 0;
  std::uint32_t collector = 0;  // sender index chosen as collector

  Bytes encode() const;
  static SelectMsg decode(Reader& r);
};

}  // namespace spider::irmc
