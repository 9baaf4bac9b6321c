"""Cluster certificates and the probe-driven process that builds them.

A *cluster* at slack ``eta`` is a vertex set ``T`` whose induced coloured
graph carries both a red and a blue tiling of size at least
``|T|/(2k - alpha) - eta*|T|``, clamped at zero.  Certificates store the
tilings explicitly, so verification never solves a maximum-tiling problem.

``cluster_process`` consumes two equal-size tiled sets, X covered by blue
copies and Y by red, and runs one process indexed by side: side 0 is X,
whose probe window red copies hit, and side 1 is Y, hit by blue copies.
Each step probes a small window of both sides for an off-colour copy
with at least ``alpha`` vertices in one side's window (red first), removes it
from both pools and keeps its part in the other side's window.  The step,
the copy-accounting identity and termination are written once, for the
side ``i`` the copy hit.  The process ends when either pool is smaller
than a window.  If one side's events reach the crossing quota, they pair
with that side's base half.  Otherwise the side whose pool ran dry tops its
events up from the other side's reserve.  Every slack takes this one path:
at ``eta >= 1`` the guard ``ceil(eta^2 * s)`` exceeds either active half, so
no step runs and X's base half pairs with Y's whole reserve on all ``s``
vertices.  One assembler builds every certificate, and every run checks its
inputs and re-verifies its certificate.  Every rounding choice is listed in
the README's rounding table; the table version travels with extraction
reports.

All randomness (the "arbitrary" window choice) comes from one seeded
shuffle per side, so runs replay exactly from the recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .embeddings import EmbeddedCopy
from .graphs import Colour, ColouredGraph, exact_ratio, iter_bits, mask_of
from .patterns import PatternStats
from .richness import find_side_good_copy
from .sampling import derive_seed, philox_generator
from .tilings import Tiling, tiling_errors


class InvariantViolation(RuntimeError):
    """An internal accounting identity failed; indicates a bug or a rounding corner."""


@dataclass(frozen=True)
class ClusterCertificate:
    """A vertex set with explicit red and blue tilings witnessing cluster-ness."""

    vertices: frozenset[int]
    red_tiling: Tiling
    blue_tiling: Tiling
    eta: float

    def tiling(self, colour: Colour) -> Tiling:
        return self.red_tiling if colour is Colour.RED else self.blue_tiling


@dataclass(frozen=True)
class ProcessState:
    """Snapshot of the probe loop: shrinking pools, kept vertices, step counts."""

    active_x: frozenset[int]
    active_y: frozenset[int]
    saved_x: frozenset[int]
    saved_y: frozenset[int]
    red_steps: int
    blue_steps: int


@dataclass(frozen=True)
class FailureReport:
    """A probe window held no good copy; carries the state for diagnostics."""

    exhausted_at: ProcessState
    probe_x: frozenset[int]
    probe_y: frozenset[int]


@dataclass(frozen=True)
class StepRecord:
    """One loop iteration, for invariant-checking tests and replay."""

    step_type: Colour  # RED: off-colour copy hit the X window; BLUE: the Y window
    copy: EmbeddedCopy
    removed_from_x: int
    removed_from_y: int
    state_after: ProcessState


def required_tiling_size(t_size: int, H: PatternStats, eta) -> int:
    """Lower bound each colour's tiling must meet inside a cluster, clamped at
    zero, which it is at every ``eta >= 1/(2k - alpha)``."""
    # t/D - eta*t over the common denominator D * eta.denominator, rounded up.
    eta, d = exact_ratio(eta), H.tiling_denominator
    return max(0, -(-t_size * (eta.denominator - d * eta.numerator) // (d * eta.denominator)))


def probe_window_size(eta, s: int) -> int:
    """Vertices per side in each probe window, and the loop guard: ``ceil(eta^2 * s)``."""
    eta = exact_ratio(eta)
    return -(-(eta.numerator ** 2 * s) // eta.denominator ** 2)


def cluster_errors(G: ColouredGraph, H: PatternStats, cert: ClusterCertificate) -> list[str]:
    problems: list[str] = []
    vertices = cert.vertices
    if not vertices:
        problems.append("cluster vertex set is empty")
    elif min(vertices) < 0 or max(vertices) >= G.n:
        problems.append("cluster vertex set leaves the host")
        return problems
    inside = mask_of(vertices)
    need = required_tiling_size(len(vertices), H, cert.eta)
    for tiling in (cert.red_tiling, cert.blue_tiling):
        name = tiling.colour.value
        problems += [f"{name} tiling: {p}" for p in tiling_errors(G, H, tiling, inside)]
        if tiling.size < need:
            problems.append(f"{name} tiling has {tiling.size} copies, bound requires {need}")
    if cert.red_tiling.colour is not Colour.RED or cert.blue_tiling.colour is not Colour.BLUE:
        problems.append("tilings are tagged with the wrong colours")
    return problems


def verify_cluster(G: ColouredGraph, H: PatternStats, cert: ClusterCertificate) -> bool:
    """Independent check of a certificate; never raises, never searches."""
    return not cluster_errors(G, H, cert)


# ---------------------------------------------------------------------------
# The process
# ---------------------------------------------------------------------------

def _check_covering_tiling(
    G: ColouredGraph,
    H: PatternStats,
    tiling: Tiling,
    colour: Colour,
    vertices: frozenset[int],
    m: int,
    side: str,
) -> None:
    if tiling.colour is not colour:
        raise ValueError(f"{side} tiling must be {colour.value}")
    if tiling.size != m:
        raise ValueError(f"{side} tiling must have exactly {m} copies, got {tiling.size}")
    if tiling.vertices != vertices:
        raise ValueError(f"{side} tiling must cover its side exactly")
    # Covering the side already keeps the copies inside it; the validator
    # checks the rest (maps, disjointness, edges of the tiling's colour in G).
    errors = tiling_errors(G, H, tiling)
    if errors:
        raise ValueError(f"{side} tiling is not a valid tiling of the host: {errors[0]}")


def _shuffled(mask: int, seed: int) -> list[int]:
    """The vertices of ``mask`` as one-bit masks, in a seeded order."""
    order = [1 << v for v in iter_bits(mask)]
    return [order[i] for i in philox_generator(seed).permutation(len(order)).tolist()]


def _top_up(window: int, shuffle: list[int], at: int, size: int) -> tuple[int, int]:
    """Fill ``window`` to ``size`` vertices from ``shuffle[at:]``; the new window and cursor.

    Copies lie inside the windows, so the pool's vertices before the cursor are
    exactly the window and those from it on are untouched: the window stays the
    first ``size`` pool vertices in shuffle order.
    """
    taken = shuffle[at:at + size - window.bit_count()]
    for bit in taken:
        window |= bit
    return window, at + len(taken)


def cluster_process(
    G: ColouredGraph,
    H: PatternStats,
    X: Iterable[int],
    Y: Iterable[int],
    eta: float,
    blue_tiling_x: Tiling,
    red_tiling_y: Tiling,
    seed: int = 0,
    trace: list[StepRecord] | None = None,
) -> ClusterCertificate | FailureReport:
    """Build a cluster certificate from a blue-tiled set and a red-tiled set.

    Returns a :class:`FailureReport` when some probe window contains no good
    copy, which is a legitimate outcome on hosts that are not rich enough.
    A window of ``ceil(eta^2 * s)`` vertices per side that cannot hold a good
    copy (below ``alpha``, or twice it below ``k``) is a ``ValueError``.
    Inputs are checked and success is internally re-verified at every slack;
    with ``eta * len(X) >= 2`` (always, when the per-side copy count is even)
    the verification cannot fail.
    """
    x_set = frozenset(X)
    y_set = frozenset(Y)
    if x_set & y_set:
        raise ValueError("X and Y must be disjoint")
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, not {eta!r}")
    k, alpha = H.k, H.alpha
    if k < 3:
        raise ValueError("the cluster process needs a pattern on at least 3 vertices")
    s = len(x_set)
    if len(y_set) != s:
        raise ValueError("X and Y must have equal size")
    if s % k or s < 2 * k:
        raise ValueError("side size must be a multiple of the pattern order, at least twice it")
    m = s // k
    _check_covering_tiling(G, H, blue_tiling_x, Colour.BLUE, x_set, m, "X")
    _check_covering_tiling(G, H, red_tiling_y, Colour.RED, y_set, m, "Y")

    # Side 0 is X, whose window red steps hit; side 1 is Y, hit by blue steps.
    # Each side's active half takes the ceiling share of its copies, its
    # reserve the floor.
    hits = (Colour.RED, Colour.BLUE)
    half = (m + 1) // 2
    tilings = (blue_tiling_x, red_tiling_y)
    base = [tuple(t.copies[:half]) for t in tilings]
    reserve = [tuple(t.copies[half:]) for t in tilings]
    base_mask = [mask_of(v for c in copies for v in c.vertex_map) for copies in base]

    eta_exact = exact_ratio(eta)
    guard = probe_window_size(eta_exact, s)
    # A good copy has alpha vertices in one window and all k in the two.
    if guard < alpha or 2 * guard < k:
        raise ValueError(f"a probe window of {guard} vertices per side cannot hold a good copy (alpha {alpha}, k {k})")
    q_cross = half  # crossing-case event quota
    q_res = m // 2  # residual-case tiling target

    shuffle = [_shuffled(base_mask[i], derive_seed("window", seed, "xy"[i])) for i in (0, 1)]
    active = base_mask[:]
    windows, cursors = [0, 0], [0, 0]
    saved = [0, 0]
    # Per side: (copy hitting that side's window, part kept from the other pool).
    events: list[list[tuple[EmbeddedCopy, int]]] = [[], []]

    def snapshot() -> ProcessState:
        return ProcessState(
            active_x=frozenset(iter_bits(active[0])),
            active_y=frozenset(iter_bits(active[1])),
            saved_x=frozenset(iter_bits(saved[0])),
            saved_y=frozenset(iter_bits(saved[1])),
            red_steps=len(events[0]),
            blue_steps=len(events[1]),
        )

    def check_accounting() -> None:
        # Steps hitting side i remove k - |part kept on the other side| vertices
        # from pool i; steps hitting the other side remove exactly their kept part.
        for i in (0, 1):
            removed = base_mask[i].bit_count() - active[i].bit_count()
            if removed != k * len(events[i]) - saved[1 - i].bit_count() + saved[i].bit_count():
                raise InvariantViolation(f"{'XY'[i]}-pool copy-accounting identity failed")

    while min(active[0].bit_count(), active[1].bit_count()) >= guard:
        for i in (0, 1):
            windows[i], cursors[i] = _top_up(windows[i], shuffle[i], cursors[i], guard)
        window = windows[0] | windows[1]
        for i in (0, 1):
            copy = find_side_good_copy(G, H, hits[i], window, windows[i], alpha)
            if copy is not None:
                break
        else:
            return FailureReport(
                exhausted_at=snapshot(),
                probe_x=frozenset(iter_bits(windows[0])),
                probe_y=frozenset(iter_bits(windows[1])),
            )
        cmask = copy.vertex_mask
        removed_from_x = (cmask & active[0]).bit_count()
        removed_from_y = (cmask & active[1]).bit_count()
        part = cmask & windows[1 - i]
        if part.bit_count() > k - alpha:
            raise InvariantViolation(
                f"a {hits[i].value} step kept more than k - alpha {'XY'[1 - i]}-pool vertices"
            )
        saved[1 - i] |= part
        events[i].append((copy, part))
        for j in (0, 1):
            active[j] &= ~cmask
            windows[j] &= ~cmask
        check_accounting()
        if trace is not None:
            trace.append(
                StepRecord(
                    step_type=hits[i],
                    copy=copy,
                    removed_from_x=removed_from_x,
                    removed_from_y=removed_from_y,
                    state_after=snapshot(),
                )
            )

    # Termination patterns.  Enough crossing events on one side already pair
    # with that side's base half; otherwise the side whose pool ran dry tops
    # its events up from the other side's reserve.
    for i in (0, 1):
        if len(events[i]) >= q_cross:
            cert = _assemble(eta, base[i], base_mask[i], events[i][:q_cross], (), hits[i])
            break
    else:
        i = 0 if active[0].bit_count() < guard else 1
        top_up = reserve[1 - i][: q_res - len(events[i])]
        cert = _assemble(eta, base[i], base_mask[i], events[i], top_up, hits[i])
        # Exact size identity for this termination pattern, then the strict
        # bound bought by the probe-window guard.
        t_size = len(cert.vertices)
        if t_size != s + saved[1 - i].bit_count() - k * len(events[i]):
            raise InvariantViolation("residual-case size identity failed")
        if not Fraction(t_size) < s - Fraction(alpha * s, 2 * k) + eta_exact**2 * s:
            raise InvariantViolation("residual-case size bound failed")
    bad = cluster_errors(G, H, cert)
    if bad:
        raise InvariantViolation(
            "assembled certificate fails verification (rounding corner at tiny eta*s): "
            + "; ".join(bad)
        )
    return cert


def _assemble(
    eta: float,
    base: tuple[EmbeddedCopy, ...],
    base_mask: int,
    events: list[tuple[EmbeddedCopy, int]],
    top_up: tuple[EmbeddedCopy, ...],
    colour: Colour,
) -> ClusterCertificate:
    """Pair a base half with ``colour`` copies: the events, then the top-up.

    The vertex set is the base half, the events' far parts and the top-up copies.
    """
    t_mask = base_mask
    for _, part in events:
        t_mask |= part
    for c in top_up:
        t_mask |= c.vertex_mask
    hit = Tiling(colour, tuple(c for c, _ in events) + top_up)
    base_tiling = Tiling(colour.other, base)
    red, blue = (hit, base_tiling) if colour is Colour.RED else (base_tiling, hit)
    return ClusterCertificate(
        vertices=frozenset(iter_bits(t_mask)), red_tiling=red, blue_tiling=blue, eta=eta
    )
