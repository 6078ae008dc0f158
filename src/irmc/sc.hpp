// IRMC-SC: sender-side collection (paper §4, Fig. 19/20).
//
// Senders exchange signed hashes (SigShares) inside their region, assemble
// certificates of fs+1 shares, and a per-receiver collector forwards a
// single Certificate message across the wide-area link. Receivers monitor
// collector liveness via Progress messages and switch collectors (Select)
// on timeout. Minimizes WAN traffic at the cost of extra sender CPU.
//
// The window rules live in the core (irmc.hpp). IRMC-SC adds the shares,
// the certificates, Progress, Select and the receivers' gap timer; a
// SigShare cannot carry a window move, so move_and_send() sends its Move
// first.
#pragma once

#include <map>
#include <optional>

#include "irmc/irmc.hpp"
#include "irmc/messages.hpp"

namespace spider {

class ScSender : public IrmcSenderEndpoint {
 public:
  ScSender(ComponentHost& host, IrmcConfig cfg);
  ~ScSender() override;

  void on_message(NodeId from, BytesView frame) override;

 private:
  struct Slot {
    // Own payload copy, once sent here; Payload so the per-share digest
    // re-check in try_certificate reuses one memoized hash.
    std::optional<Payload> payload;
    // sender index -> (digest key, signature over that sender's SigShare)
    std::map<std::uint32_t, std::pair<std::uint64_t, Bytes>> shares;
    Payload certificate;  // full signed wire frame; collector sends share it
  };
  struct Collect {
    Collect(std::uint32_t receivers, std::uint32_t senders) {
      for (std::uint32_t ri = 0; ri < receivers; ++ri) collector.push_back(ri % senders);
    }
    std::map<Position, Slot> slots;
    std::vector<std::uint32_t> collector;  // per receiver: the sender it selected
  };

  void transmit(Subchannel sc, Position p, Bytes m, bool move) override;
  void drop_below(Subchannel sc, Position lo) override;
  Collect& collect(Subchannel sc) {
    return collect_.try_emplace(sc, cfg_.nr(), cfg_.ns()).first->second;
  }
  void try_certificate(Subchannel sc, Position p, const Collect& c, Slot& slot);
  void on_progress_timer();

  std::uint32_t my_index_ = 0;
  std::map<Subchannel, Collect> collect_;
  EventQueue::EventId progress_timer_ = EventQueue::kInvalidEvent;
};

class ScReceiver : public IrmcReceiverEndpoint {
 public:
  ScReceiver(ComponentHost& host, IrmcConfig cfg);
  ~ScReceiver() override;

  void on_message(NodeId from, BytesView frame) override;

  /// Collector currently selected for a subchannel (test introspection).
  [[nodiscard]] std::uint32_t collector(Subchannel sc) const;

 private:
  struct Gap {
    Gap(std::uint32_t senders, std::uint32_t first) : progress(senders, 0), collector(first) {}
    std::vector<Position> progress;  // per sender: highest position it reported
    Position merged = 0;             // fs+1-highest progress
    std::uint32_t collector;
    EventQueue::EventId timer = EventQueue::kInvalidEvent;
  };

  void on_certificate(Window& w, const irmc::CertificateMsgView& cert);
  Gap& gap(Subchannel sc) {
    return gaps_.try_emplace(sc, cfg_.ns(), my_index_ % cfg_.ns()).first->second;
  }
  /// Some position up to the merged progress is missing inside the window.
  [[nodiscard]] bool has_gap(const Window& w, const Gap& g) const;
  void arm_gap_timer(Subchannel sc, Gap& g);
  void on_gap_timer(Subchannel sc);

  std::uint32_t my_index_ = 0;
  std::map<Subchannel, Gap> gaps_;
};

}  // namespace spider
