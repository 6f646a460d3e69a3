"""Checks on the result rows a workload run writes.

Every row is checked on its own; a row that fails any check counts as one
failed operation. The checks:

- at the reference seed, the row equals the row pinned in
  perfbench/pinned/<workload>.csv.gz (byte for byte);
- the same row from every other route through the pipeline (shard merge,
  warm re-run from the cache, single-process run) is byte-equal to it;
- an uncapped cell of a paper algorithm has success 1;
- no cell has mean_time < D (D - 1 for plane strategies, whose agents see
  a target from the sight radius, 1, and so can find one at D - 1).
"""

import csv
import io

# Strategies whose uncapped runs must always find the target (the paper's
# algorithms and their plane ports).
PAPER_ALGORITHMS = frozenset({
    "known-k", "approx-k", "uniform", "harmonic",
    "plane-known-k", "plane-uniform", "plane-harmonic",
})


# The plane engine's sight radius (sim::EngineConfig::sight_radius, which a
# spec cannot change).
PLANE_SIGHT_RADIUS = 1.0


def split_lines(text):
    """Header line and row lines of a rows CSV (empty input: no rows)."""
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], lines[1:]


def parse_row(header, line):
    fields = next(csv.reader(io.StringIO(header)))
    values = next(csv.reader(io.StringIO(line)))
    return dict(zip(fields, values))


def strategy_base(spec):
    return spec.split("(", 1)[0].strip()


def row_problems(row):
    """Seed-independent problems of one parsed row (empty list: fine)."""
    problems = []
    base = strategy_base(row["spec"])
    floor = float(row["D"])
    if base.startswith("plane-"):
        floor -= PLANE_SIGHT_RADIUS
    if float(row["mean_time"]) < floor:
        problems.append("mean_time %s below %g (D %s)"
                        % (row["mean_time"], floor, row["D"]))
    uncapped = int(row["time_cap"]) == 0
    if (uncapped and base in PAPER_ALGORITHMS
            and float(row["success"]) != 1.0):
        problems.append("uncapped %s has success %s"
                        % (row["spec"], row["success"]))
    return problems


def check_rows(primary, variants, pinned=None):
    """Checks the rows of `primary` (CSV text).

    `variants` maps a route name to the CSV text that route produced; each
    must repeat `primary` row for row. `pinned` is the pinned CSV text at the
    reference seed, or None at other seeds.

    Returns (attempted, failed, messages).
    """
    header, rows = split_lines(primary)
    others = {name: split_lines(text) for name, text in variants.items()}
    pinned_rows = split_lines(pinned) if pinned is not None else None
    failed = 0
    messages = []
    for i, line in enumerate(rows):
        problems = row_problems(parse_row(header, line))
        for name, (other_header, other_rows) in sorted(others.items()):
            if other_header != header or i >= len(other_rows) \
                    or other_rows[i] != line:
                problems.append("%s row differs" % name)
        if pinned_rows is not None:
            pin_header, pin_rows = pinned_rows
            if pin_header != header or i >= len(pin_rows) \
                    or pin_rows[i] != line:
                problems.append("differs from the pinned row")
        if problems:
            failed += 1
            if len(messages) < 10:
                messages.append("row %d (%s): %s"
                                % (i + 1, line[:80], "; ".join(problems)))
    # Rows a route produced beyond the primary's count are failures too.
    extra = [len(r) - len(rows) for _, r in others.values()]
    if pinned_rows is not None:
        extra.append(len(pinned_rows[1]) - len(rows))
    surplus = max([0] + extra)
    if surplus:
        messages.append("%d surplus rows in another route" % surplus)
    return len(rows) + surplus, failed + surplus, messages
