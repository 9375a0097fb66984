"""Toroidal particle shift between adjacent domains.

After a push, particles whose zeta has crossed a domain boundary are
sent to the ±zeta neighbor — GTC's only point-to-point communication
phase.  Particles never move more than one domain per step when
``dt * v_par / R0 < dzeta`` (validated here).

All ranks' particles live in one ``(PARTICLE_WORDS, N)`` arena block,
rank ``r``'s in columns ``off[r]:off[r + 1]``, and the shift touches
only what it has to.  It wraps just the zeta values outside
[0, 2 pi), finds the particles' domains with one divide per domain,
and classifies only the movers — about 1 % of the particles at the
benchmark's sizes.  It then gathers the new layout into the other
block, a domain's ranks at a time with one ``take`` per field: each
rank's stayers in particle order, then its arrivals in message posting
order (senders ascending, each sender's left message before its right
one).  The messages — one to each neighbor per rank,
``PARTICLE_WORDS`` float64 words a particle, zero-size ones included —
are booked with one accounting-only ``exchange_phase``.
"""

from __future__ import annotations

import numpy as np

from ...simmpi.comm import Communicator
from .grid import TorusGrid
from .particles import PARTICLE_FIELDS, PARTICLE_WORDS

#: Bytes one particle takes on the wire.
PARTICLE_BYTES = PARTICLE_WORDS * np.dtype(np.float64).itemsize

_TWO_PI = 2.0 * np.pi
_ZETA = PARTICLE_FIELDS.index("zeta")
_VPAR = PARTICLE_FIELDS.index("vpar")


def wrap_zeta(zeta: np.ndarray) -> None:
    """Wrap ``zeta`` into [0, 2 pi) in place, as ``np.mod`` would.

    ``np.mod`` leaves [0, 2 pi) unchanged and turns -0.0 into +0.0, so
    only the values with the sign bit set or at least 2 pi change.
    """
    out = np.flatnonzero(np.signbit(zeta) | (zeta >= _TWO_PI))
    if out.size:
        zeta[out] = np.mod(zeta[out], _TWO_PI)


def classify(
    torus: TorusGrid, domain: int, zeta: np.ndarray, vpar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The particles of a domain that left it, and the side each leaves
    by.

    ``zeta`` is wrapped into [0, 2 pi) (:func:`wrap_zeta`).  Returns
    the movers' indices, ascending, and their sides: 0 (left) for a
    particle now in domain ``domain - 1`` (mod n), 1 (right) for one
    in ``domain + 1``.  With two domains both neighbours are the other
    one, and the side a particle leaves by is the direction it
    travelled: left when its ``vpar`` is negative.  A particle further
    away is a ``ValueError``.
    """
    n = torus.ntoroidal
    dom = (zeta / torus.dzeta).astype(np.int64)
    np.minimum(dom, n - 1, out=dom)
    movers = np.flatnonzero(dom != domain)
    if n == 2:
        side = (~(vpar[movers] < 0)).astype(np.intp)
    else:
        hop = (dom[movers] - domain) % n
        if not np.all((hop == 1) | (hop == n - 1)):
            raise ValueError(
                "particle moved more than one toroidal domain in one "
                "step; reduce dt, or a species' temperature/mass ratio"
            )
        side = (hop == 1).astype(np.intp)
    return movers, side


def _domain_runs(rank_domain: np.ndarray) -> list[tuple[int, int]]:
    """The ``[r0, r1)`` runs of consecutive ranks sharing a domain."""
    cuts = np.flatnonzero(np.diff(rank_domain)) + 1
    bounds = [0, *cuts.tolist(), len(rank_domain)]
    return list(zip(bounds[:-1], bounds[1:]))


def shift_block(
    comm: Communicator,
    torus: TorusGrid,
    rank_domain: np.ndarray,
    rank_neighbors: np.ndarray,
    off: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> np.ndarray:
    """Exchange boundary-crossing particles between all ranks at once.

    Parameters
    ----------
    comm:
        The world communicator (all ranks participate).
    rank_domain:
        ``(P,)`` toroidal domain of each rank.
    rank_neighbors:
        ``(P, 2)`` left and right partner of each rank — the rank with
        the same particle-split index in the adjacent domain.
    off:
        ``(P + 1,)`` rank offsets into ``src``.
    src:
        The ``(PARTICLE_WORDS, N)`` block of every rank's current
        particles; their zeta is wrapped into [0, 2 pi) in place.
    dst:
        A block of ``src``'s shape, not sharing its memory, that the
        new populations are written into.

    Returns the new rank offsets into ``dst``.  The total particle
    count and total charge are conserved exactly.  A single domain has
    no neighbours, so nothing is sent.

    Each run of ranks sharing a domain is classified, and later
    gathered, in one piece: a domain's particles at a time keeps every
    temporary small.
    """
    nranks = len(off) - 1
    zeta, vpar = src[_ZETA], src[_VPAR]
    runs = _domain_runs(rank_domain)
    found = []
    for r0, r1 in runs:
        a, b = off[r0], off[r1]
        wrap_zeta(zeta[a:b])
        movers, side = classify(torus, rank_domain[r0], zeta[a:b], vpar[a:b])
        found.append((movers + a, side))
    movers = np.concatenate([m for m, _ in found])
    # message 2 * rank + side: the posting order of the messages
    source = np.searchsorted(off, movers, side="right") - 1
    message = 2 * source + np.concatenate([s for _, s in found])
    if torus.ntoroidal > 1:
        comm.exchange_phase(
            np.repeat(np.arange(nranks), 2),
            rank_neighbors.ravel(),
            np.bincount(message, minlength=2 * nranks) * PARTICLE_BYTES,
        )

    dest = rank_neighbors.ravel()[message]
    arrived = np.bincount(dest, minlength=nranks)
    stays = np.diff(off) - np.bincount(source, minlength=nranks)
    new_off = np.concatenate([[0], np.cumsum(stays + arrived)])
    # arrivals by destination, each rank's in message order
    arrivals = movers[np.argsort(dest * 2 * nranks + message, kind="stable")]
    arr_off = np.concatenate([[0], np.cumsum(arrived)])
    for r0, r1 in runs:
        # each rank's stayers, then its arrivals
        a, b = off[r0], off[r1]
        i, j = np.searchsorted(movers, (a, b))
        order = np.insert(
            np.delete(np.arange(a, b), movers[i:j] - a),
            np.repeat(np.cumsum(stays[r0:r1]), arrived[r0:r1]),
            arrivals[arr_off[r0] : arr_off[r1]],
        )
        into = dst[:, new_off[r0] : new_off[r1]]
        for k in range(PARTICLE_WORDS):
            # "clip" never clips valid indices, and unlike the default
            # it writes into `into` without a bounce buffer
            src[k].take(order, out=into[k], mode="clip")
    return new_off
