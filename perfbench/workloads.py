"""Seeded inputs of the two workloads, shared by the runner, the worker and
`reference.py build`.  Imports nothing from qgasgeo.

Every workload is a sequence of passes; pass p of seed s is drawn from its own
generator, so any pass can be rebuilt from (seed, p) alone.

* edge-sweep: one curvature_closed_form call per item, bosons near z -> 1.
  z = 1 - 10^u on a lattice of u in [-3, -1] (step 0.2), so that every
  input has a committed reference value.  A pass is every lattice point of
  each of the ten (D, q) pairs, 110 points, in a seeded order.  The costs of
  these points spread over two decades, so a pass that drew one point per
  stratum of u moved item_ms_p90 by about 20% from seed to seed; with the
  whole lattice in every pass only the order and the host's noise vary,
  and min_correct_digits is the same in every run.
* dilute-search: per pass, one sign-boundary search per bracket (z = 10^u,
  u on a lattice in [-2.3, -1], step 0.1, taken in turn from a seeded
  starting point, so 14 passes cover it), one virial_threshold per kind and
  tiny-z curvature points at q = 1: log10 z drawn by strata from a lattice
  on [-8, -2] (step 0.25), plus boson D=2 at z = 1e-8 in every pass.  At
  q = 1 the small-z loss is not mixed with the poor conditioning of R near
  a sign boundary.  Of all lattice points the fixed one deviates most from
  the reference (3.7e-7), so min_correct_digits does not depend on the seed
  or on how many passes a run makes.
"""

import random

BOSON = "boson"
FERMION = "fermion"

# --- edge-sweep ------------------------------------------------------------------

EDGE_PAIRS = [(D, q) for D in (2, 3) for q in (0.5, 0.8, 1.0, 1.15, 2.0)]
EDGE_U = [round(-3.0 + 0.2 * i, 2) for i in range(11)]


def edge_z(u):
    return 1.0 - 10.0 ** u


def _edge_pass(rng, p, offset):
    return [{"kind": "point", "stat": BOSON, "D": D, "q": q, "z": edge_z(u)}
            for D, q in EDGE_PAIRS for u in EDGE_U]


# --- dilute-search -----------------------------------------------------------------

SEARCHES = [(FERMION, 3, 1.5, 2.5), (BOSON, 3, 1.1, 1.5), (BOSON, 2, 1.2, 1.7), (FERMION, 2, 0.3, 8.0)]
SEARCH_U = [round(-2.3 + 0.1 * i, 1) for i in range(14)]
THRESHOLD_KINDS = {"alpha": (FERMION, 3), "delta": (BOSON, 3), "eta": (BOSON, 2), "zeta": (FERMION, 2)}
TINY_GASES = [(BOSON, 2), (BOSON, 3), (FERMION, 2), (FERMION, 3)]
TINY_LOG10_Z = [-8.0 + 0.25 * i for i in range(25)]
TINY_STRATA = 6
# in every pass: the lattice point that deviates most from the reference
TINY_FIXED = (BOSON, 2, 1e-8)
# Two tiny-z points per boson gas and one per fermion gas: fermion points take
# about half the time of boson ones, and with this mix the pass median falls
# inside the boson tiny-z latencies and the 90th percentile inside one
# search kind, instead of on the boundary between two groups of latencies.
TINY_STRATA_OFFSETS = {BOSON: (0, 3), FERMION: (0,)}


def search_z(u):
    return 10.0 ** u


def _dilute_pass(rng, p, offset):
    items = []
    for k, (stat, D, lo, hi) in enumerate(SEARCHES):
        z = search_z(SEARCH_U[(offset + p + 4 * k) % len(SEARCH_U)])
        items.append({"kind": "search", "stat": stat, "D": D, "z": z, "q_lo": lo, "q_hi": hi})
    for kind in THRESHOLD_KINDS:
        items.append({"kind": "threshold", "name": kind})
    width = (len(TINY_LOG10_Z) - 1) // TINY_STRATA
    for g, (stat, D) in enumerate(TINY_GASES):
        for s in TINY_STRATA_OFFSETS[stat]:
            lo = width * ((p + g + s) % TINY_STRATA)
            hi = len(TINY_LOG10_Z) if lo + width == len(TINY_LOG10_Z) - 1 else lo + width
            u = TINY_LOG10_Z[rng.randrange(lo, hi)]
            items.append({"kind": "point", "stat": stat, "D": D, "q": 1.0, "z": 10.0 ** u})
    stat, D, z = TINY_FIXED
    items.append({"kind": "point", "stat": stat, "D": D, "q": 1.0, "z": z})
    return items


# --- common ----------------------------------------------------------------------

WORKLOADS = {"edge-sweep": _edge_pass, "dilute-search": _dilute_pass}
# passes in one cycle of the inputs: every edge-sweep pass holds the whole
# lattice; fourteen dilute-search passes hold every search of the lattice
CYCLE = {"edge-sweep": 1, "dilute-search": len(SEARCH_U)}


def make_pass(workload, seed, p):
    """Items of pass p, in execution order; identical for identical (seed, p)."""
    offset = random.Random(f"{workload}/{seed}").randrange(len(SEARCH_U))
    rng = random.Random(f"{workload}/{seed}/{p}")
    items = WORKLOADS[workload](rng, p, offset)
    rng.shuffle(items)
    return items


def table_points():
    """Every (stat, D, q, z) whose reference R is committed in the table."""
    return [(BOSON, D, q, edge_z(u)) for D, q in EDGE_PAIRS for u in EDGE_U]


def table_searches():
    """Every (stat, D, z, q_lo, q_hi) whose reference sign boundary is committed."""
    return [(stat, D, search_z(u), lo, hi) for stat, D, lo, hi in SEARCHES for u in SEARCH_U]
