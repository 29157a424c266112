"""Frontier abstractions: the open set of the bounded search.

A :class:`Frontier` owns the order in which discovered-but-unexpanded
search nodes are expanded.  The classic Spin-style search is depth-first
(a stack); breadth-first finds shortest counterexamples first; the
priority frontier lets a strategy steer the search (e.g. expand states
with pending cyber events before quiescent ones).
"""

import heapq
from collections import deque


class Frontier:
    """Interface: an ordered open set of search nodes."""

    def push(self, node):
        raise NotImplementedError

    def pop(self):
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError

    def __bool__(self):
        return len(self) > 0


class DepthFirstFrontier(Frontier):
    """LIFO stack: the classic bounded DFS (Algorithm 1 as implemented)."""

    def __init__(self):
        self._stack = []

    def push(self, node):
        self._stack.append(node)

    def pop(self):
        return self._stack.pop()

    def __len__(self):
        return len(self._stack)


class BreadthFirstFrontier(Frontier):
    """FIFO deque: explores by depth layer; counterexamples are minimal."""

    def __init__(self):
        self._queue = deque()

    def push(self, node):
        self._queue.append(node)

    def pop(self):
        return self._queue.popleft()

    def __len__(self):
        return len(self._queue)


def default_priority(node):
    """Default priority: shallow states first, pending dispatches sooner.

    Draining pending cyber events early keeps the concurrent search close
    to quiescent states, where invariants are checked.
    """
    return (node.depth, -len(node.state.pending))


class PriorityFrontier(Frontier):
    """Best-first search over a user-supplied ``priority(node)`` key."""

    def __init__(self, priority=None):
        self._priority = priority or default_priority
        self._heap = []
        self._counter = 0

    def push(self, node):
        # the counter breaks priority ties FIFO and shields the heap from
        # comparing _Node objects
        self._counter += 1
        heapq.heappush(self._heap, (self._priority(node), self._counter, node))

    def pop(self):
        return heapq.heappop(self._heap)[2]

    def __len__(self):
        return len(self._heap)
