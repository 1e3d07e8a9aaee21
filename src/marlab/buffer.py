"""Replay storage shared by the value-based and actor-critic learners."""

from dataclasses import dataclass, field


class Empty(Exception):
    pass


@dataclass(frozen=True)
class JointTransition:
    """One joint step: state index, all agents' actions, all rewards."""
    state: int
    actions: tuple
    rewards: tuple
    next_state: int
    done: bool


@dataclass
class EpisodeTrace:
    """Per-timestep record of one communication episode."""
    observations: list = field(default_factory=list)   # [t][agent] -> vector
    actions: list = field(default_factory=list)        # [t][agent] -> int
    messages: list = field(default_factory=list)       # [t][agent] -> vector
    rewards: list = field(default_factory=list)        # [t] -> vector
    dones: list = field(default_factory=list)          # [t] -> bool

    def __len__(self):
        return len(self.actions)


class ReplayBuffer:
    """Fixed-capacity FIFO ring; sampling is uniform with replacement."""

    def __init__(self, capacity):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items = []
        self._write = 0

    def __len__(self):
        return len(self._items)

    def push(self, item):
        if len(self._items) < self.capacity:
            self._items.append(item)
        else:
            self._items[self._write] = item
            self._write = (self._write + 1) % self.capacity

    def sample(self, k, rng):
        if not self._items:
            raise Empty("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._items), size=int(k))
        return [self._items[i] for i in idx]

    def contents(self):
        """Items oldest-first."""
        return self._items[self._write:] + self._items[:self._write]
