"""Replay storage shared by the value-based, actor-critic and communication
learners, held as one array per record field."""

import typing

import numpy as np


class Empty(Exception):
    pass


class JointTransition(typing.NamedTuple):
    """One joint step: state index, all agents' actions, all rewards.  A
    sampled batch is a JointTransition of arrays stacked along axis 0."""
    state: int
    actions: tuple
    rewards: tuple
    next_state: int
    done: bool


class ReplayBuffer:
    """Fixed-capacity FIFO ring of NamedTuple records, stored as one
    preallocated column per field with the first record's shapes and dtypes;
    a value its column cannot hold without loss (a float into an int column,
    or another shape) raises TypeError.  Sampling is uniform with replacement
    and returns a record of the same type whose fields are stacked arrays."""

    def __init__(self, capacity):
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._make = None
        self._cols = ()
        self._pushes = 0

    def __len__(self):
        return min(self._pushes, self.capacity)

    def push(self, record):
        values = [np.asarray(v) for v in record]
        if self._make is None:
            self._make = type(record)._make
            self._cols = [np.empty((self.capacity, *v.shape), v.dtype) for v in values]
        # all fields are checked before any is written, so a rejected record
        # leaves the slot it would overwrite intact
        if any(v.shape != col.shape[1:] or not np.can_cast(v.dtype, col.dtype)
               for col, v in zip(self._cols, values)):
            raise TypeError(f"{record!r} does not fit columns {[c.dtype for c in self._cols]}")
        for col, v in zip(self._cols, values):
            col[self._pushes % self.capacity] = v
        self._pushes += 1

    def sample(self, k, rng):
        """k records, or a shape k of them, whose axes then lead every field; one
        integers call draws the slots, as one call per row of k in row order would."""
        if not self._pushes:
            raise Empty("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self), size=k)
        return self._make(col[idx] for col in self._cols)

    def contents(self):
        """All stored records oldest-first, as one stacked record."""
        if not self._pushes:
            raise Empty("an empty buffer has no contents")
        n = len(self)
        return self._make(col[(self._pushes - n + np.arange(n)) % self.capacity]
                          for col in self._cols)
