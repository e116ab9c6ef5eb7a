#ifndef SPNET_GPUSIM_EVENT_HEAP_H_
#define SPNET_GPUSIM_EVENT_HEAP_H_

#include <cstddef>
#include <vector>

namespace spnet {
namespace gpusim {

/// Binary min-heap of simulator events ordered by their `double time`
/// member: the earliest event is on top.
///
/// Events that share a time come out in an order fixed by the heap's own
/// moves, and simulated figures depend on that order (a retiring block's
/// SM is backfilled first). The moves are pinned here rather than left to
/// a standard library: they are exactly those of libstdc++'s
/// priority_queue over a vector with std::greater (libc++ breaks ties
/// between children the other way).
///
///   push  appends the event and sifts it up past every parent that is
///         strictly later.
///   pop   takes the last event out, sifts the hole at the root down to a
///         leaf, taking the left child only when the right one is
///         strictly later, then sifts the taken-out event up from there.
///
/// The child choice is computed as an index offset, not a branch: which
/// child wins is data-dependent and close to random.
template <typename Event>
class EventHeap {
 public:
  bool empty() const { return heap_.empty(); }

  /// The earliest event. Requires !empty().
  const Event& top() const { return heap_.front(); }

  void push(const Event& event) {
    heap_.push_back(event);
    SiftUp(heap_.size() - 1, event);
  }

  /// Removes the earliest event. Requires !empty().
  void pop() {
    const size_t len = heap_.size() - 1;
    if (len > 0) {
      const Event last = heap_[len];
      size_t hole = 0;
      size_t child = 0;
      // Both children exist while child < (len - 1) / 2.
      while (child < (len - 1) / 2) {
        child = 2 * (child + 1);
        child -= static_cast<size_t>(heap_[child].time >
                                     heap_[child - 1].time);
        heap_[hole] = heap_[child];
        hole = child;
      }
      // An even length leaves one node with only a left child.
      if ((len & 1) == 0 && child == (len - 2) / 2) {
        child = 2 * (child + 1);
        heap_[hole] = heap_[child - 1];
        hole = child - 1;
      }
      SiftUp(hole, last);
    }
    heap_.pop_back();
  }

 private:
  /// Moves `event` from `hole` toward the root past every strictly later
  /// parent.
  void SiftUp(size_t hole, const Event& event) {
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!(heap_[parent].time > event.time)) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  std::vector<Event> heap_;
};

}  // namespace gpusim
}  // namespace spnet

#endif  // SPNET_GPUSIM_EVENT_HEAP_H_
