"""Self time per span name and per layer from a Chrome trace of spans.

Each event is a complete ("X") event whose args carry its own id and its
parent's id (-1 for a root). A span's self time is its duration minus the
part of its interval that its children cover.
"""

from collections import defaultdict


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(events):
    """Maps span name -> total self time (trace units, us) over its spans."""
    children = defaultdict(list)
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            children[parent].append((e["ts"], e["ts"] + e["dur"]))
    out = defaultdict(float)
    for e in events:
        start, stop = e["ts"], e["ts"] + e["dur"]
        kids = children.get(e["args"]["id"], [])
        out[e["name"]] += e["dur"] - covered(kids, start, stop)
    return dict(out)


def layer_self_times(events):
    """Self time summed per layer, the span-name prefix before the first dot."""
    out = defaultdict(float)
    for name, t in self_times(events).items():
        out[name.split(".", 1)[0]] += t
    return dict(out)
