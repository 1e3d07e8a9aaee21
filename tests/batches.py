"""Test helper: a list of replay records as the stacked batch a learner takes."""

from marlab.buffer import ReplayBuffer


def stacked(records):
    """Push the records into a replay of their length and return its contents."""
    buf = ReplayBuffer(len(records))
    for record in records:
        buf.push(record)
    return buf.contents()
