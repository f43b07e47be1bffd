#include "sim/event_loop.hpp"

#include <algorithm>

namespace ipop::sim {

namespace {
// Below this, skipping dead entries on pop is cheaper than rebuilding.
constexpr std::size_t kCompactMinHeap = 64;

// splitmix64 finalizer — decorrelates the trace-chain inputs so the
// merged digest is sensitive to every (at, seq, aux) triple.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

TimePoint EventLoop::clamp_to_now(TimePoint t) {
  // A past timestamp means some layer computed a deadline from stale
  // state — under sharding that is a window-synchronization bug, not a
  // convenience to paper over.
  assert(t >= now_ && "schedule into the past (cross-shard sync bug?)");
  if (t < now_) {
    ++clamped_;
    t = now_;
  }
  return t;
}

EventLoop::~EventLoop() {
  // Retire every slot before its closure dies: a destructor that cancels
  // an event here finds either a live slot (handled normally) or a dead id.
  for (std::uint32_t i = 0; i < slots_used_; ++i) {
    if (!slot(i).cb) continue;
    Callback doomed = std::move(slot(i).cb);
    release_slot(i);
  }
}

std::uint32_t EventLoop::acquire_slot(Callback&& cb, std::uint32_t aux) {
  if (free_slots_.empty()) {
    if (slots_used_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    }
    free_slots_.push_back(slots_used_++);
  }
  const std::uint32_t i = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slot(i);
  s.cb = std::move(cb);
  s.aux = aux;
  return i;
}

void EventLoop::push_key(const Key& k) {
  heap_.push_back(k);
  std::push_heap(heap_.begin(), heap_.end());
  ++pending_;
}

void EventLoop::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end());
  heap_.pop_back();
}

EventLoop::EventId EventLoop::schedule_at(TimePoint t, Callback cb) {
  t = clamp_to_now(t);
  const std::uint32_t i = acquire_slot(std::move(cb), 0);
  const std::uint32_t gen = slot(i).gen;
  push_key(Key{t, 0, next_seq_++, i, gen});
  return (static_cast<EventId>(i) << 32) | gen;
}

void EventLoop::schedule_delivery(TimePoint t, std::uint64_t stream,
                                  std::uint64_t seq, std::uint32_t aux,
                                  Callback cb) {
  t = clamp_to_now(t);
  const std::uint32_t i = acquire_slot(std::move(cb), aux);
  push_key(Key{t, stream + 1, seq, i, slot(i).gen});
}

void EventLoop::cancel(EventId id) {
  const auto i = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (i >= slots_used_ || slot(i).gen != gen) return;  // ran or cancelled
  Callback doomed = std::move(slot(i).cb);
  release_slot(i);
  --pending_;
  maybe_compact();
  // `doomed` dies here, with the bookkeeping consistent: its captures may
  // own objects whose destructors cancel further events.
}

void EventLoop::maybe_compact() {
  // Rebuild once dead keys outnumber live ones: amortized O(1) per
  // cancel, and the heap never holds more than ~2x the live events.
  if (heap_.size() < kCompactMinHeap) return;
  if (heap_.size() - pending_ <= heap_.size() / 2) return;
  std::erase_if(heap_, [&](const Key& k) { return !live(k); });
  std::make_heap(heap_.begin(), heap_.end());
}

bool EventLoop::prune_top() {
  while (!heap_.empty()) {
    if (live(heap_.front())) return true;
    pop_key();  // cancelled: discard lazily
  }
  return false;
}

TimePoint EventLoop::next_event_at() {
  return prune_top() ? heap_.front().at : TimePoint::max();
}

void EventLoop::execute(const Key& k) {
  now_ = k.at;
  ++processed_;
  --pending_;
  Slot& s = slot(k.slot);
  if (k.key0 != 0 && tracing_) {
    TraceStream& ts = trace_[k.key0 - 1];
    ts.chain = mix64(ts.chain ^ mix64(static_cast<std::uint64_t>(
                                          k.at.count()) ^
                                      mix64(k.key1) ^ mix64(s.aux)));
    ++ts.count;
  }
  // Out of the arena before it runs: the callback may schedule, and the
  // slot must be free for reuse by then.
  Callback cb = std::move(s.cb);
  release_slot(k.slot);
  cb();
}

template <typename Due>
std::size_t EventLoop::run_while(Due due) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && prune_top()) {
    const Key k = heap_.front();
    if (!due(k.at)) break;  // horizon: the event stays where it is
    pop_key();
    execute(k);
    ++n;
  }
  return n;
}

bool EventLoop::run_one() {
  if (!prune_top()) return false;
  const Key k = heap_.front();
  pop_key();
  execute(k);
  return true;
}

std::size_t EventLoop::run() {
  return run_while([](TimePoint) { return true; });
}

std::size_t EventLoop::run_until(TimePoint t) {
  const std::size_t n = run_while([t](TimePoint at) { return at <= t; });
  if (now_ < t) now_ = t;
  return n;
}

std::size_t EventLoop::run_window(TimePoint end) {
  const std::size_t n = run_while([end](TimePoint at) { return at < end; });
  if (now_ < end) now_ = end;
  return n;
}

}  // namespace ipop::sim
