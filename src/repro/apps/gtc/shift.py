"""Toroidal particle shift between adjacent domains.

After a push, particles whose zeta has crossed a domain boundary are
sent to the ±zeta neighbor — GTC's only point-to-point communication
phase.  Particles never move more than one domain per step when
``dt * v_par / R0 < dzeta`` (asserted in tests via the Courant-free but
single-hop condition).

The simulated ranks share one address space, so the particles move in
one copy: every rank's stayers and then its arrivals, each in particle
order, are gathered straight into the rank's new storage.  The
messages — one to each neighbor per rank, ``PARTICLE_WORDS`` float64
words a particle — are booked with one accounting-only
``exchange_phase``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ...simmpi.comm import Communicator
from .grid import TorusGrid
from .particles import PARTICLE_FIELDS, PARTICLE_WORDS, ParticleArray

#: Bytes one particle takes on the wire.
PARTICLE_BYTES = PARTICLE_WORDS * np.dtype(np.float64).itemsize


def classify(
    torus: TorusGrid, domain: int, particles: ParticleArray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of (stay, go_left, go_right) particles for one domain.

    A particle belongs left if its domain (zeta wrapped into
    [0, 2 pi)) is ``domain - 1`` (mod n), right if ``domain + 1``.
    With two domains both neighbours are the other one, and the side
    a particle leaves by is the direction it travelled: left when its
    ``vpar`` is negative.  Faster particles would hop multiple domains;
    the mini-app's step sizes keep hops single (validated here).
    """
    n = torus.ntoroidal
    dom = torus.domain_of(particles.zeta)
    stay = dom == domain
    moved = ~stay
    if n == 2:
        left = moved & (particles.vpar < 0)
        right = moved & ~left
    else:
        left = moved & (dom == (domain - 1) % n)
        right = moved & (dom == (domain + 1) % n)
    if not np.all(stay | left | right):
        raise ValueError(
            "particle moved more than one toroidal domain in one step; "
            "reduce dt or thermal velocity"
        )
    return stay, left, right


def shift_particles(
    comm: Communicator,
    torus: TorusGrid,
    rank_domain: list[int],
    rank_neighbors: list[tuple[int, int]],
    particles_by_rank: list[ParticleArray],
    storage: Callable[[int, int], ParticleArray],
) -> list[ParticleArray]:
    """Exchange boundary-crossing particles between all ranks at once.

    Parameters
    ----------
    comm:
        The world communicator (all ranks participate).
    rank_domain:
        Toroidal domain index of each rank.
    rank_neighbors:
        ``(left_rank, right_rank)`` partner of each rank — the rank with
        the same particle-split index in the adjacent domain.
    particles_by_rank:
        Current particle population of each rank; their zeta is wrapped
        into [0, 2 pi) in place.
    storage:
        ``storage(rank, n)`` returns the ``n``-particle array the
        rank's new population is written into.  It must not share
        memory with any population being shifted.

    Returns the new per-rank populations: the stayers in order, then
    the arrivals in message posting order (senders ascending, each
    sender's left message before its right one).  Total particle count
    and total charge are conserved (tests enforce this exactly).  A
    single domain has no neighbours, so nothing is sent.
    """
    nranks = comm.nprocs
    stayers: list[np.ndarray] = []
    arrivals: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(nranks)]
    srcs: list[int] = []
    dsts: list[int] = []
    sizes: list[int] = []
    for rank in range(nranks):
        p = particles_by_rank[rank]
        np.mod(p.zeta, 2.0 * np.pi, out=p.zeta)
        stay, left, right = classify(torus, rank_domain[rank], p)
        stayers.append(np.flatnonzero(stay))
        for dst, mask in zip(rank_neighbors[rank], (left, right)):
            movers = np.flatnonzero(mask)
            srcs.append(rank)
            dsts.append(dst)
            sizes.append(movers.size * PARTICLE_BYTES)
            if movers.size:
                arrivals[dst].append((rank, movers))
    if torus.ntoroidal > 1:
        comm.exchange_phase(srcs, dsts, sizes)

    result = []
    for rank in range(nranks):
        pieces = [(rank, stayers[rank]), *arrivals[rank]]
        dest = storage(rank, sum(len(idx) for _, idx in pieces))
        for name in PARTICLE_FIELDS:
            out = getattr(dest, name)
            at = 0
            for src, idx in pieces:
                # "clip" never clips valid indices, and unlike the
                # default it writes into `out` without a bounce buffer
                getattr(particles_by_rank[src], name).take(
                    idx, out=out[at : at + len(idx)], mode="clip"
                )
                at += len(idx)
        result.append(dest)
    return result
