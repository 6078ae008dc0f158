#include "sim/event_queue.hpp"

#include <algorithm>

namespace spider {

// 4-ary layout: children of i are 4i+1 .. 4i+4, parent is (i-1)/4. The
// wider fan-out halves the tree depth vs a binary heap, and sift moves are
// mostly std::function pointer swaps on a contiguous vector.

void EventQueue::sift_up(std::size_t i) {
  Entry e = std::move(heap_[i]);
  while (i > 0) {
    std::size_t parent = (i - 1) / 4;
    if (!before(e, heap_[parent])) break;
    heap_[i] = std::move(heap_[parent]);
    i = parent;
  }
  heap_[i] = std::move(e);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Entry e = std::move(heap_[i]);
  for (;;) {
    std::size_t best = 4 * i + 1;
    if (best >= n) break;
    std::size_t last = std::min(best + 4, n);
    for (std::size_t c = best + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = std::move(heap_[best]);
    i = best;
  }
  heap_[i] = std::move(e);
}

void EventQueue::pop_root() {
  heap_.front() = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::drop_dead_root() {
  while (!heap_.empty() && pending_.find(heap_.front().id) == pending_.end()) pop_root();
}

EventQueue::EventId EventQueue::schedule_at(Time at, Fn fn) {
  if (at < now_) at = now_;
  EventId id = next_id_++;
  heap_.push_back(Entry{at, id, std::move(fn)});
  sift_up(heap_.size() - 1);
  pending_.insert(id);
  ++scheduled_;
  return id;
}

void EventQueue::cancel(EventId id) {
  // Ids are generations: one that already fired (or was never issued) is
  // absent from pending_, so a stale cancel can never kill a later event.
  if (pending_.erase(id) == 0) return;
  ++cancelled_;
  maybe_compact();
}

void EventQueue::maybe_compact() {
  // Compact when more than half the heap is tombstones, so cancelled
  // entries cannot accumulate beyond 2x the live set.
  if (heap_.size() < 64 || pending_.size() * 2 >= heap_.size()) return;
  std::size_t w = 0;
  for (std::size_t r = 0; r < heap_.size(); ++r) {
    if (pending_.find(heap_[r].id) == pending_.end()) continue;
    if (w != r) heap_[w] = std::move(heap_[r]);
    ++w;
  }
  heap_.resize(w);
  // Floyd heap construction: sift down from the last parent.
  for (std::size_t i = heap_.size() / 4 + 1; i-- > 0;) {
    if (i < heap_.size()) sift_down(i);
  }
}

std::optional<Time> EventQueue::next_time() {
  drop_dead_root();
  if (heap_.empty()) return std::nullopt;
  return heap_.front().at;
}

bool EventQueue::run_next() {
  drop_dead_root();
  if (heap_.empty()) return false;
  now_ = heap_.front().at;
  EventId id = heap_.front().id;
  Fn fn = std::move(heap_.front().fn);
  pop_root();
  pending_.erase(id);
  ++fired_;
  fn();
  return true;
}

void EventQueue::run_until(Time t) {
  for (;;) {
    drop_dead_root();
    if (heap_.empty() || heap_.front().at > t) break;
    run_next();
  }
  if (now_ < t) now_ = t;
}

void EventQueue::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && run_next()) ++n;
}

}  // namespace spider
