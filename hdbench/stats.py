"""Statistics the HDiff benchmark reports, kept apart so they can be tested.

Every function here is pure: it takes plain numbers and returns plain
numbers.  run.py applies them to the raw samples hdbench writes; steady.py
applies them across runs.
"""

import statistics

# Tail candidates, in percent.  The reported tail is the highest of these
# that still leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

# Phases of one campaign round, in the order hdbench writes them after the
# round's wall time.
PHASES = ("plan", "execute", "integrate", "commit")


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median, third quartile.

    The same cut points as statistics.quantiles(values, n=4), the default
    (exclusive) method, which is what the benchmark's steadiness check uses.
    """
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest candidate percentile with at least ten of n samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    best = None
    for p in TAIL_CANDIDATES:
        # Round before comparing: 0.1 * 100 must count as 10.
        if round(n * (100.0 - p) / 100.0, 9) >= TAIL_MIN_BEYOND:
            best = p
    return best


def tail(values):
    """(percentile, value, sample count) of the reported tail.

    With too few samples for any candidate the tail is the largest sample,
    reported as percentile 100.
    """
    p = tail_percentile(len(values))
    if p is None:
        return 100.0, max(values), len(values)
    return p, percentile(values, p), len(values)


def attribute_round(wall, phases):
    """Split one round's wall time into its named phases and the rest.

    `phases` holds the durations of plan, execute, integrate and commit.
    Returns (unattributed, coverage): the part of the wall no phase covers
    and the share the phases do cover.
    """
    if wall <= 0:
        raise ValueError("a round takes time")
    covered = sum(phases)
    if covered > wall:
        raise ValueError("phases exceed their round")
    return wall - covered, covered / wall


def engine_coverage(pairs):
    """Share of untraced campaigns' round time their traced twins' phase
    calls account for, pooled over twin pairs.

    Each pair is (phase_rounds, engine_rounds): per round, the twin's plan,
    execute, integrate and commit durations, and the untraced run's round
    latencies (commit to commit).  Round 0 is left out: the untraced one
    also holds seed registration, which the twin does before its first
    round.  Work the engine does outside the four calls shows as a share
    below 1.
    """
    covered = engine = 0
    for phase_rounds, engine_rounds in pairs:
        if len(phase_rounds) != len(engine_rounds) or len(phase_rounds) < 2:
            raise ValueError("need the same rounds, round 0 and at least "
                             "one more, on both sides")
        covered += sum(sum(r) for r in phase_rounds[1:])
        engine += sum(engine_rounds[1:])
    if engine <= 0:
        raise ValueError("a round takes time")
    return covered / engine


def within_bound(base, new, bound, better):
    """True when `new` is no worse than `base` by more than `bound` (a share
    of `base`).  `better` is "lower" or "higher"."""
    if better == "lower":
        return new <= base * (1.0 + bound)
    if better == "higher":
        return new >= base * (1.0 - bound)
    raise ValueError("better must be 'lower' or 'higher', not %r" % better)
