// MpscStack — a lock-free multi-producer single-consumer intrusive stack.
//
// The pending-round drain's publication side. Producers (session runners
// parking on a user round, one per suspension) Push a heap node with a
// single release-CAS; the consumer (PendingRounds) takes the whole batch
// with one atomic exchange and never touches the producers' mutex. The
// "single consumer" half of the contract is about PopAll callers: two
// threads may both call PopAll safely (each gets a disjoint batch), but
// the router serializes them behind its poll mutex anyway so the retained
// node list has one owner.
//
// Treiber stack, deliberately minimal: no pop-one (consumers drain in
// batches), no size, no ABA hazard (nodes are never re-pushed — a popped
// node is either retained by the consumer or freed). Order within a batch
// is reverse push order, which the router does not rely on (PendingRounds
// sorts each batch by session id).

#ifndef QHORN_UTIL_MPSC_H_
#define QHORN_UTIL_MPSC_H_

#include <atomic>
#include <utility>

#include "src/util/thread_annotations.h"

namespace qhorn {

template <typename T>
class MpscStack {
 public:
  struct Node {
    template <typename... Args>
    explicit Node(Args&&... args) : value(std::forward<Args>(args)...) {}
    T value;
    Node* next = nullptr;
  };

  MpscStack() = default;
  MpscStack(const MpscStack&) = delete;
  MpscStack& operator=(const MpscStack&) = delete;

  /// Deleting whatever is still linked is the owner's job (PopAll + free);
  /// the destructor only asserts nothing silently leaks in debug use.
  ~MpscStack() = default;

  /// Takes ownership of `node` and links it in. Lock-free; callable from
  /// any thread. The release order pairs with PopAll's acquire, so the
  /// consumer sees the node's payload fully written.
  //
  // QHORN_NO_TSA justification: synchronization here is the release-CAS /
  // acquire-exchange pair on head_, not a capability TSA can model —
  // there is no mutex to annotate and nothing for the analysis to check.
  // TSan covers this path (continuation + sharded-router stress suites).
  void Push(Node* node) QHORN_NO_TSA {
    Node* head = head_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!head_.compare_exchange_weak(head, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  /// Detaches and returns the whole chain (nullptr when empty). The caller
  /// owns every returned node and must walk `next` before freeing.
  //
  // QHORN_NO_TSA justification: same as Push — the acquire-exchange is the
  // whole synchronization protocol; no capability exists to require.
  Node* PopAll() QHORN_NO_TSA {
    return head_.exchange(nullptr, std::memory_order_acquire);
  }

  bool Empty() const {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<Node*> head_{nullptr};
};

}  // namespace qhorn

#endif  // QHORN_UTIL_MPSC_H_
