// Determinism kit for the retry-storm simulator (docs/STORM.md).
//
// Two small pieces, modeled on the Mars-sim Rng/Recorder idiom: a seeded
// splittable RNG (splitmix64) so every edge draws jitter from its own stream
// regardless of event interleaving, and a timing-wheel event queue that pops
// in (time, tiebreak seq) order so same-instant events pop in push order.
// Virtual time is the popped event's timestamp; nothing else keeps a clock.
// Nothing here reads wall time; a storm run is a pure function of
// (profiles, options, seed).

#ifndef WASABI_SRC_STORM_SIM_H_
#define WASABI_SRC_STORM_SIM_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace wasabi {

// splitmix64 (Steele et al., "Fast splittable pseudorandom number
// generators"): tiny state, full 64-bit period per stream, and cheap
// splitting — hashing a salt into the current state yields an independent
// child stream. Each storm edge gets its own split so adding or removing an
// edge never perturbs another edge's jitter draws.
class SimRng {
 public:
  explicit SimRng(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  // Independent child stream: mixes the salt through one splitmix step so
  // Split(1) and Split(2) diverge even from a zero seed.
  SimRng Split(uint64_t salt) const {
    SimRng child(state_ ^ (salt + 0x9e3779b97f4a7c15ull));
    child.Next();
    return child;
  }

  // Uniform in [lo, hi], inclusive. hi < lo yields lo.
  int64_t NextInt(int64_t lo, int64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

 private:
  uint64_t state_;
};

// Event queue that pops in (at_ms, seq) order; seq is assigned at push, so
// same-instant events pop in push order — the tiebreak that makes the whole
// simulation insensitive to the queue's internals.
//
// Layout: a timing wheel of kWheel one-ms buckets for events due within
// kWheel ms of the cursor (the time of the last pop), plus a binary min-heap
// keyed (at_ms, seq) for events due later. Each bucket is an intrusive FIFO
// list threaded through one node pool with a free list, so storage follows
// the number of pending events, not the scheduling horizon.
//
// PopMin pops the heap's entries due at the cursor, then the cursor's
// bucket; it steps the cursor one ms at a time while the wheel holds events
// and jumps straight to the heap's minimum when the wheel is empty. The
// order is exact because the cursor only moves forward: a far entry for T
// is pushed while the cursor is at or before T - kWheel, a near one after
// that, so every far entry for T precedes every near entry for T in push
// order. Precondition: no push is earlier than the last pop (the simulator
// meets it because every delay is at least 1 ms). Before the first pop the
// cursor is -infinity, so early pushes all go to the heap.
template <typename Payload>
class EventQueue {
 public:
  struct Entry {
    int64_t at_ms = 0;
    uint64_t seq = 0;
    Payload payload;
  };

  EventQueue() : head_(kWheel, kNil), tail_(kWheel, kNil) {}

  void Push(int64_t at_ms, Payload payload) {
    assert(at_ms >= cursor_ && "EventQueue: push earlier than the last pop");
    // at_ms >= cursor_, so the unsigned difference is exact.
    if (static_cast<uint64_t>(at_ms) - static_cast<uint64_t>(cursor_) >= kWheel) {
      far_.push_back(Entry{at_ms, next_seq_++, std::move(payload)});
      std::push_heap(far_.begin(), far_.end(), Later);
    } else {
      PushNear(at_ms, std::move(payload));
    }
  }

  bool empty() const { return size() == 0; }
  size_t size() const { return far_.size() + near_count_; }

  Entry PopMin() {
    assert(!empty());
    while (true) {
      if (!far_.empty() && far_.front().at_ms == cursor_) {
        return PopFar();
      }
      size_t bucket = Bucket(cursor_);
      if (head_[bucket] != kNil) {
        return PopNear(bucket);
      }
      if (near_count_ == 0) {
        cursor_ = far_.front().at_ms;
      } else {
        ++cursor_;
      }
    }
  }

 private:
  static constexpr uint64_t kWheel = 16384;  // Covers the 8 s request timeout.
  static_assert((kWheel & (kWheel - 1)) == 0, "bucket index is a mask");
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    Entry entry;
    uint32_t next = kNil;
  };

  static size_t Bucket(int64_t at_ms) {
    return static_cast<size_t>(static_cast<uint64_t>(at_ms) & (kWheel - 1));
  }

  void PushNear(int64_t at_ms, Payload&& payload) {
    uint32_t node;
    if (free_ != kNil) {
      node = free_;
      free_ = pool_[node].next;
    } else {
      assert(pool_.size() < kNil);
      node = static_cast<uint32_t>(pool_.size());
      pool_.emplace_back();
    }
    // Filled in place: building an Entry and moving it in made a push/pop
    // pair about 2.5x slower in a microbenchmark.
    Node& n = pool_[node];
    n.entry.at_ms = at_ms;
    n.entry.seq = next_seq_++;
    n.entry.payload = std::move(payload);
    n.next = kNil;
    size_t bucket = Bucket(at_ms);
    if (tail_[bucket] == kNil) {
      head_[bucket] = node;
    } else {
      pool_[tail_[bucket]].next = node;
    }
    tail_[bucket] = node;
    ++near_count_;
  }

  Entry PopNear(size_t bucket) {
    uint32_t node = head_[bucket];
    Node& n = pool_[node];
    head_[bucket] = n.next;
    if (n.next == kNil) {
      tail_[bucket] = kNil;
    }
    n.next = free_;
    free_ = node;
    --near_count_;
    return std::move(n.entry);
  }

  Entry PopFar() {
    std::pop_heap(far_.begin(), far_.end(), Later);
    Entry min = std::move(far_.back());
    far_.pop_back();
    return min;
  }

  // The std heap algorithms keep the greatest element at the front, so the
  // heap is ordered by "later" to keep the earliest (at_ms, seq) there.
  static bool Later(const Entry& a, const Entry& b) {
    return a.at_ms != b.at_ms ? a.at_ms > b.at_ms : a.seq > b.seq;
  }

  int64_t cursor_ = INT64_MIN;
  std::vector<Entry> far_;  // Min-heap on (at_ms, seq).
  std::vector<Node> pool_;
  uint32_t free_ = kNil;
  std::vector<uint32_t> head_;  // Per bucket: first pool node, or kNil.
  std::vector<uint32_t> tail_;  // Per bucket: last pool node, or kNil.
  size_t near_count_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace wasabi

#endif  // WASABI_SRC_STORM_SIM_H_
