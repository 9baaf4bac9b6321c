"""Cluster certificates and the probe-driven process that builds them.

A *cluster* at slack ``eta`` is a vertex set ``T`` whose induced coloured
graph carries both a red and a blue tiling of size at least
``|T|/(2k - alpha) - eta*|T|`` (clamped at zero, which is what makes the
``eta >= 1`` degenerate case work).  Certificates store the tilings
explicitly, so verification never solves a maximum-tiling problem.

``cluster_process`` consumes two equal-size tiled sets, one covered by blue
copies and one by red, repeatedly probes small windows of both for a copy
of the off colour reaching across, and assembles a certificate from one of
three termination patterns.  Every rounding choice is listed in the
README's rounding table; the table version travels with extraction reports.

All randomness (the "arbitrary" window choice) comes from one seeded
shuffle, so runs replay exactly from the recorded seed.
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
    """Clamped lower bound each colour's tiling must meet inside a cluster."""
    bound = Fraction(t_size, H.tiling_denominator) - exact_ratio(eta) * t_size
    return max(0, math.ceil(bound))


def probe_window_size(eta, s: int) -> int:
    """Vertices per side in each probe window, and the loop guard: ``ceil(eta^2 * s)``."""
    return math.ceil(exact_ratio(eta) ** 2 * s)


def cluster_errors(G: ColouredGraph, H: PatternStats, cert: ClusterCertificate) -> list[str]:
    problems: list[str] = []
    if not cert.vertices:
        problems.append("cluster vertex set is empty")
    if any(not 0 <= v < G.n for v in cert.vertices):
        problems.append("cluster vertex set leaves the host")
        return problems
    need = required_tiling_size(len(cert.vertices), H, cert.eta)
    for tiling in (cert.red_tiling, cert.blue_tiling):
        name = tiling.colour.value
        problems += [f"{name} tiling: {p}" for p in tiling_errors(G, H, tiling, cert.vertices)]
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
    tiling: Tiling, colour: Colour, vertices: frozenset[int], m: int, side: str
) -> None:
    if tiling.colour is not colour:
        raise ValueError(f"{side} tiling must be {colour.value}")
    if tiling.size != m:
        raise ValueError(f"{side} tiling must have exactly {m} copies, got {tiling.size}")
    if tiling.vertices != vertices:
        raise ValueError(f"{side} tiling must cover its side exactly")


def _shuffled(vertices: Iterable[int], seed: int) -> list[int]:
    order = sorted(vertices)
    rng = philox_generator(seed)
    return [order[i] for i in rng.permutation(len(order))]


def _window(shuffle: list[int], active: int, size: int) -> int:
    out = 0
    taken = 0
    for v in shuffle:
        if (active >> v) & 1:
            out |= 1 << v
            taken += 1
            if taken == size:
                break
    return out


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
    Success is internally re-verified; with ``eta * len(X) >= 2`` (always,
    when the per-side copy count is even) the verification cannot fail.
    """
    x_set = frozenset(X)
    y_set = frozenset(Y)
    if x_set & y_set:
        raise ValueError("X and Y must be disjoint")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if eta >= 1:
        # Degenerate regime: the bound clamps to zero on any nonempty set.
        if not (x_set or y_set):
            raise ValueError("need a nonempty input set")
        return ClusterCertificate(
            vertices=x_set | y_set,
            red_tiling=Tiling(Colour.RED, ()),
            blue_tiling=Tiling(Colour.BLUE, ()),
            eta=eta,
        )
    k, alpha = H.k, H.alpha
    if k < 3:
        raise ValueError("patterns on fewer than 3 vertices go through pattern substitution")
    s = len(x_set)
    if len(y_set) != s:
        raise ValueError("X and Y must have equal size")
    if s % k or s < 2 * k:
        raise ValueError("side size must be a multiple of the pattern order, at least twice it")
    m = s // k
    _check_covering_tiling(blue_tiling_x, Colour.BLUE, x_set, m, "X")
    _check_covering_tiling(red_tiling_y, Colour.RED, y_set, m, "Y")

    # Active halves take the ceiling share of copies, reserves the floor.
    half = (m + 1) // 2
    x1_copies = tuple(blue_tiling_x.copies[:half])
    x2_copies = tuple(blue_tiling_x.copies[half:])
    y1_copies = tuple(red_tiling_y.copies[:half])
    y2_copies = tuple(red_tiling_y.copies[half:])
    x1_mask = mask_of(v for c in x1_copies for v in c.vertex_map)
    y1_mask = mask_of(v for c in y1_copies for v in c.vertex_map)

    eta_exact = exact_ratio(eta)
    guard = probe_window_size(eta, s)
    q_cross = half  # crossing-case event quota
    q_res = m // 2  # residual-case tiling target

    shuffle_x = _shuffled(iter_bits(x1_mask), derive_seed("window", seed, "x"))
    shuffle_y = _shuffled(iter_bits(y1_mask), derive_seed("window", seed, "y"))

    active_x, active_y = x1_mask, y1_mask
    saved_x = saved_y = 0
    red_events: list[tuple[EmbeddedCopy, int]] = []  # (copy, part kept from the Y pool)
    blue_events: list[tuple[EmbeddedCopy, int]] = []

    def snapshot() -> ProcessState:
        return ProcessState(
            active_x=frozenset(iter_bits(active_x)),
            active_y=frozenset(iter_bits(active_y)),
            saved_x=frozenset(iter_bits(saved_x)),
            saved_y=frozenset(iter_bits(saved_y)),
            red_steps=len(red_events),
            blue_steps=len(blue_events),
        )

    def check_accounting() -> None:
        # Red steps remove k - |kept in Y| vertices from the X pool, blue
        # steps remove exactly their kept X part; mirrored for the Y pool.
        removed_x = x1_mask.bit_count() - active_x.bit_count()
        removed_y = y1_mask.bit_count() - active_y.bit_count()
        if removed_x != k * len(red_events) - saved_y.bit_count() + saved_x.bit_count():
            raise InvariantViolation("X-pool copy-accounting identity failed")
        if removed_y != k * len(blue_events) - saved_x.bit_count() + saved_y.bit_count():
            raise InvariantViolation("Y-pool copy-accounting identity failed")

    while min(active_x.bit_count(), active_y.bit_count()) >= guard:
        w_mask = _window(shuffle_x, active_x, guard)
        u_mask = _window(shuffle_y, active_y, guard)
        window = w_mask | u_mask
        for hit in (Colour.RED, Colour.BLUE):
            side = w_mask if hit is Colour.RED else u_mask
            copy = find_side_good_copy(G, H, hit, window, side, alpha)
            if copy is not None:
                break
        else:
            return FailureReport(
                exhausted_at=snapshot(),
                probe_x=frozenset(iter_bits(w_mask)),
                probe_y=frozenset(iter_bits(u_mask)),
            )
        cmask = copy.vertex_mask
        removed_from_x = (cmask & active_x).bit_count()
        removed_from_y = (cmask & active_y).bit_count()
        if hit is Colour.RED:
            part = cmask & u_mask
            if part.bit_count() > k - alpha:
                raise InvariantViolation("a red step kept more than k - alpha Y-pool vertices")
            saved_y |= part
            red_events.append((copy, part))
        else:
            part = cmask & w_mask
            if part.bit_count() > k - alpha:
                raise InvariantViolation("a blue step kept more than k - alpha X-pool vertices")
            saved_x |= part
            blue_events.append((copy, part))
        active_x &= ~cmask
        active_y &= ~cmask
        check_accounting()
        if trace is not None:
            trace.append(
                StepRecord(
                    step_type=hit,
                    copy=copy,
                    removed_from_x=removed_from_x,
                    removed_from_y=removed_from_y,
                    state_after=snapshot(),
                )
            )

    # Termination patterns.  Enough crossing events of one colour already pair
    # with the opposite base half; otherwise top up from the reserve of
    # whichever pool ran dry, relative to that orientation.
    if len(red_events) >= q_cross:
        cert = _assemble_crossing(
            eta, base_copies=x1_copies, base_mask=x1_mask,
            events=red_events[:q_cross], event_colour=Colour.RED,
        )
    elif len(blue_events) >= q_cross:
        cert = _assemble_crossing(
            eta, base_copies=y1_copies, base_mask=y1_mask,
            events=blue_events[:q_cross], event_colour=Colour.BLUE,
        )
    elif active_x.bit_count() < guard:
        cert = _assemble_residual(
            H, eta, s, q_res, base_copies=x1_copies, base_mask=x1_mask,
            events=red_events, reserve=y2_copies, saved=saved_y,
            event_colour=Colour.RED, eta_exact=eta_exact,
        )
    else:
        cert = _assemble_residual(
            H, eta, s, q_res, base_copies=y1_copies, base_mask=y1_mask,
            events=blue_events, reserve=x2_copies, saved=saved_x,
            event_colour=Colour.BLUE, eta_exact=eta_exact,
        )
    bad = cluster_errors(G, H, cert)
    if bad:
        raise InvariantViolation(
            "assembled certificate fails verification (rounding corner at tiny eta*s): "
            + "; ".join(bad)
        )
    return cert


def _pair_tilings(
    event_colour: Colour, event_tiling: Tiling, base_tiling: Tiling
) -> tuple[Tiling, Tiling]:
    if event_colour is Colour.RED:
        return event_tiling, base_tiling
    return base_tiling, event_tiling


def _assemble_crossing(
    eta: float,
    base_copies: tuple[EmbeddedCopy, ...],
    base_mask: int,
    events: list[tuple[EmbeddedCopy, int]],
    event_colour: Colour,
) -> ClusterCertificate:
    """Enough crossing copies of one colour: keep the base half plus their far parts."""
    t_mask = base_mask
    for _, part in events:
        t_mask |= part
    event_tiling = Tiling(event_colour, tuple(c for c, _ in events))
    base_tiling = Tiling(event_colour.other, base_copies)
    red, blue = _pair_tilings(event_colour, event_tiling, base_tiling)
    return ClusterCertificate(
        vertices=frozenset(iter_bits(t_mask)), red_tiling=red, blue_tiling=blue, eta=eta
    )


def _assemble_residual(
    H: PatternStats,
    eta: float,
    s: int,
    q_res: int,
    base_copies: tuple[EmbeddedCopy, ...],
    base_mask: int,
    events: list[tuple[EmbeddedCopy, int]],
    reserve: tuple[EmbeddedCopy, ...],
    saved: int,
    event_colour: Colour,
    eta_exact: Fraction,
) -> ClusterCertificate:
    """Few crossing copies either way: top the event colour up from the reserve."""
    top_up = reserve[: q_res - len(events)]
    t_mask = base_mask | saved
    for c in top_up:
        t_mask |= c.vertex_mask
    t_size = t_mask.bit_count()
    # Exact size identity for this termination pattern, then the strict bound
    # bought by the probe-window guard.
    if t_size != s + saved.bit_count() - H.k * len(events):
        raise InvariantViolation("residual-case size identity failed")
    limit = s - Fraction(H.alpha * s, 2 * H.k) + eta_exact**2 * s
    if not Fraction(t_size) < limit:
        raise InvariantViolation("residual-case size bound failed")
    event_tiling = Tiling(event_colour, tuple(c for c, _ in events) + tuple(top_up))
    base_tiling = Tiling(event_colour.other, base_copies)
    red, blue = _pair_tilings(event_colour, event_tiling, base_tiling)
    return ClusterCertificate(
        vertices=frozenset(iter_bits(t_mask)), red_tiling=red, blue_tiling=blue, eta=eta
    )
