"""Checkpoint/restart for the four solvers (and anything Checkpointable).

A checkpoint is the solver's *mutable physics state*: exactly the
arrays a deterministic replay needs to reproduce every later step
bitwise.  Derived per-step quantities (GTC's E-field, FVCAM's padded
halos, arena scratch) are recomputed on replay and deliberately
excluded — the paper's production codes restart the same way, from
prognostic state only.

Two stores are provided.  :class:`MemoryCheckpointStore` keeps the last
snapshot per tag in RAM (the chaos experiments and the overhead
benchmark).  :class:`DiskCheckpointStore` flattens the nested payload
into one ``.npz`` per tag under a directory, so a checkpoint survives
the process — the on-disk format is the flatten/unflatten pair below
and is documented in ``docs/resilience.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import numpy as np


@runtime_checkable
class Checkpointable(Protocol):
    """Structural protocol of a solver that can save/restore itself.

    ``checkpoint_state`` returns a JSON-shaped tree (dicts, lists,
    scalars) whose leaves are freshly copied NumPy arrays — the caller
    owns the copies.  ``restore_state`` overwrites the solver's mutable
    state from such a tree; after it returns, stepping the solver
    replays bitwise what the original run computed from that point.
    """

    def checkpoint_state(self) -> dict[str, Any]: ...

    def restore_state(self, snapshot: dict[str, Any]) -> None: ...


def snapshot_nbytes(tree: Any) -> int:
    """Total array bytes of a (nested) checkpoint payload."""
    if isinstance(tree, np.ndarray):
        return int(tree.nbytes)
    if isinstance(tree, dict):
        return sum(snapshot_nbytes(v) for v in tree.values())
    if isinstance(tree, (list, tuple)):
        return sum(snapshot_nbytes(v) for v in tree)
    return 0


def copy_tree(tree: Any) -> Any:
    """Deep-copy a nested payload (arrays copied, scalars passed)."""
    if isinstance(tree, np.ndarray):
        return tree.copy()
    if isinstance(tree, dict):
        return {k: copy_tree(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [copy_tree(v) for v in tree]
    if isinstance(tree, tuple):
        return tuple(copy_tree(v) for v in tree)
    return tree


def own_tree(tree: Any) -> Any:
    """Take ownership of a payload without copying what is already owned.

    The ``copy=False`` fast path hands the store the caller's tree.
    That is only safe for leaves nothing else can reach — an array that
    *owns* its buffer.  A view (sliced, transposed, or broadcast from a
    live solver array) still shares memory with whatever it was taken
    from, so the caller's next step would silently rewrite the snapshot.
    Views are therefore copied (which also bakes non-contiguous and
    zero-size ``(0, n)`` views down to clean owned arrays of the same
    shape); owned arrays pass through untouched, keeping the transfer
    zero-copy for ``Checkpointable.checkpoint_state`` payloads, which
    are fresh copies by contract.
    """
    if isinstance(tree, np.ndarray):
        if tree.base is not None or not tree.flags.owndata:
            return tree.copy()
        return tree
    if isinstance(tree, dict):
        return {k: own_tree(v) for k, v in tree.items()}
    if isinstance(tree, list):
        return [own_tree(v) for v in tree]
    if isinstance(tree, tuple):
        return tuple(own_tree(v) for v in tree)
    return tree


#: Container markers used by the flat form.  ``()`` keeps tuples apart
#: from lists so a round trip is type-faithful.
_MARKERS = {"{}", "[]", "()"}


def flatten_tree(tree: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten a nested payload to ``{"a/0/b": leaf}`` (npz keys).

    Dict keys must be non-empty strings without ``/`` (the path
    separator) and must not collide with the container markers —
    otherwise two distinct paths would flatten onto one key and the
    round trip would silently drop data, so all raise ``ValueError``
    instead.
    """
    out: dict[str, Any] = {}
    if isinstance(tree, dict):
        for k in tree:
            if not isinstance(k, str) or not k or "/" in k or k in _MARKERS:
                raise ValueError(
                    f"checkpoint dict keys must be non-empty strings "
                    f"without '/' and not {sorted(_MARKERS)}; got {k!r}"
                )
        items: Any = tree.items()
        marker = "{}"
    elif isinstance(tree, (list, tuple)):
        items = ((str(i), v) for i, v in enumerate(tree))
        marker = "[]" if isinstance(tree, list) else "()"
    else:
        out[prefix] = tree
        return out
    out[f"{prefix}/{marker}" if prefix else marker] = len(
        tree
    )  # container shape marker
    for k, v in items:
        key = f"{prefix}/{k}" if prefix else str(k)
        out.update(flatten_tree(v, key))
    return out


def unflatten_tree(flat: dict[str, Any]) -> Any:
    """Inverse of :func:`flatten_tree`."""

    def build(prefix: str) -> Any:
        for marker, seq in (("{}", False), ("[]", True), ("()", True)):
            key = f"{prefix}/{marker}" if prefix else marker
            if key in flat:
                if seq:
                    n = int(flat[key])
                    children = [
                        build(f"{prefix}/{i}" if prefix else str(i))
                        for i in range(n)
                    ]
                    return tuple(children) if marker == "()" else children
                names = sorted(
                    {
                        k[len(prefix) + 1 if prefix else 0 :].split("/", 1)[0]
                        for k in flat
                        if (k.startswith(prefix + "/") if prefix else True)
                        and k not in (key,)
                    }
                    - _MARKERS
                )
                return {
                    c: build(f"{prefix}/{c}" if prefix else c)
                    for c in names
                }
        return flat[prefix]

    return build("")


@dataclass
class Checkpoint:
    """One saved snapshot: which step it captures, and the payload."""

    step: int
    payload: dict[str, Any]
    nbytes: int


class MemoryCheckpointStore:
    """Keeps the most recent checkpoint per tag in process memory."""

    def __init__(self) -> None:
        self._latest: dict[str, Checkpoint] = {}
        #: Host seconds spent copying payloads into the store.
        self.save_seconds = 0.0

    def save(
        self,
        tag: str,
        step: int,
        payload: dict[str, Any],
        copy: bool = True,
    ) -> Checkpoint:
        """Store a snapshot; with ``copy=False`` the store takes
        ownership of ``payload`` instead of deep-copying it — cheap for
        payloads of freshly-owned arrays, which is exactly what
        ``Checkpointable.checkpoint_state`` returns.  Leaves that are
        *views* of someone else's memory are still copied (see
        :func:`own_tree`): a caller mutating the viewed array after the
        save must not rewrite the stored snapshot."""
        t0 = time.perf_counter()
        ckpt = Checkpoint(
            step=step,
            payload=copy_tree(payload) if copy else own_tree(payload),
            nbytes=snapshot_nbytes(payload),
        )
        self._latest[tag] = ckpt
        self.save_seconds += time.perf_counter() - t0
        return ckpt

    def load(self, tag: str) -> Checkpoint | None:
        ckpt = self._latest.get(tag)
        if ckpt is None:
            return None
        # hand out copies: the caller will mutate the restored state
        return Checkpoint(
            step=ckpt.step, payload=copy_tree(ckpt.payload),
            nbytes=ckpt.nbytes,
        )

    def tags(self) -> list[str]:
        return sorted(self._latest)


class DiskCheckpointStore:
    """One ``<tag>.npz`` per tag under ``root`` (flattened payload)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.save_seconds = 0.0

    def _path(self, tag: str) -> Path:
        safe = tag.replace("/", "_")
        return self.root / f"{safe}.npz"

    def save(
        self,
        tag: str,
        step: int,
        payload: dict[str, Any],
        copy: bool = True,
    ) -> Checkpoint:
        """Serialize a snapshot to ``<tag>.npz``.

        The canonical copy is the file, so serialization itself never
        aliases; ``copy`` governs the *returned* ``Checkpoint.payload``,
        which must not stay entangled with the caller's live arrays
        either way — ``copy=True`` hands back a deep copy (the caller
        keeps ownership of what it passed in), ``copy=False`` transfers
        ownership, detaching any view leaves (see :func:`own_tree`)."""
        t0 = time.perf_counter()
        flat = flatten_tree(payload)
        arrays = {
            f"k{i}": np.asarray(v) for i, v in enumerate(flat.values())
        }
        keys = np.array(list(flat), dtype=object)
        np.savez(
            self._path(tag),
            __keys__=keys,
            __step__=np.int64(step),
            **arrays,
        )
        nbytes = snapshot_nbytes(payload)
        owned = copy_tree(payload) if copy else own_tree(payload)
        self.save_seconds += time.perf_counter() - t0
        return Checkpoint(step=step, payload=owned, nbytes=nbytes)

    def load(self, tag: str) -> Checkpoint | None:
        path = self._path(tag)
        if not path.exists():
            return None
        with np.load(path, allow_pickle=True) as data:
            keys = list(data["__keys__"])
            step = int(data["__step__"])
            flat: dict[str, Any] = {}
            for i, key in enumerate(keys):
                arr = data[f"k{i}"]
                flat[str(key)] = arr[()] if arr.ndim == 0 else arr
        payload = unflatten_tree(flat)
        return Checkpoint(
            step=step, payload=payload, nbytes=snapshot_nbytes(payload)
        )

    def tags(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.npz"))
