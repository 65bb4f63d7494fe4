"""Hash functions for the batmap layout (Section III-A of the paper).

The paper defines three permutations ``pi_t : {1..m} -> {1..m}`` and derives
the per-batmap hash functions

.. math::

    h_t^{(i)}(x) = |B_0| \\lfloor (\\pi_t(x) \\bmod r_i) / r_0 \\rfloor
                   + (\\pi_t(x) \\bmod r_0) + (t - 1) r_0

where ``r_i`` is the (power-of-two) hash range of batmap ``B_i`` and
``r_0`` the smallest range in the collection.  Two properties matter:

* **Range nesting** — because every ``r_i`` is a power of two,
  ``pi_t(x) mod r_i == (pi_t(x) mod r_j) mod r_i`` whenever ``r_i <= r_j``,
  so a position in a large batmap folds onto a unique position in a small one
  (this is what makes unequal-size comparisons a pure ``mod`` operation).
* **Determinism across sets** — all sets use the *same* permutations, only the
  range differs, so corresponding positions in two batmaps refer to the same
  candidate element.

Elements in this implementation are 0-based: ``x in {0, ..., m-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol

import numpy as np

from repro.utils.bits import next_power_of_two
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require, require_positive, require_power_of_two

__all__ = [
    "Permutation",
    "ArrayPermutation",
    "FeistelPermutation",
    "HashFamily",
    "ExtensibleHashFamily",
    "make_permutations",
    "save_family",
    "load_family",
]


class Permutation(Protocol):
    """A bijection on ``{0, ..., m-1}`` applied element-wise to integer arrays."""

    domain_size: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return ``pi(x)`` for an array of element ids."""
        ...

    def invert(self, y: np.ndarray) -> np.ndarray:
        """Return ``pi^{-1}(y)``."""
        ...


@dataclass(frozen=True, eq=False)
class ArrayPermutation:
    """A permutation stored explicitly as a lookup table.

    Fast and exactly uniform; memory is ``O(m)`` per permutation, which is
    fine for the transaction counts used in the experiments (``m`` up to a
    few million).

    Equality is *structural* (same lookup table), not identity-based, so a
    permutation survives a pickle round-trip into a worker process and still
    compares equal to the original — batmaps built on both sides of the
    process boundary remain comparable.  Comparison goes through a cached
    content digest, so per-pair compatibility checks stay O(1) after the
    first comparison instead of re-scanning an O(m) table every time.
    """

    table: np.ndarray
    inverse: np.ndarray

    @cached_property
    def _fingerprint(self) -> bytes:
        import hashlib

        return hashlib.sha256(self.table.tobytes()).digest()

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ArrayPermutation):
            return NotImplemented
        if self.table is other.table:
            return True
        return (self.table.size == other.table.size
                and self._fingerprint == other._fingerprint)

    def __hash__(self) -> int:
        return hash((int(self.table.size), self._fingerprint))

    @property
    def domain_size(self) -> int:
        return int(self.table.size)

    @classmethod
    def random(cls, m: int, rng: RngLike = None) -> "ArrayPermutation":
        require_positive(m, "m")
        rng = make_rng(rng)
        table = rng.permutation(m).astype(np.int64)
        inverse = np.empty(m, dtype=np.int64)
        inverse[table] = np.arange(m, dtype=np.int64)
        return cls(table=table, inverse=inverse)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.size and (x.min() < 0 or x.max() >= self.domain_size):
            raise ValueError("element id out of range for permutation")
        return self.table[x]

    def invert(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.int64)
        if y.size and (y.min() < 0 or y.max() >= self.domain_size):
            raise ValueError("value out of range for permutation inverse")
        return self.inverse[y]


@dataclass(frozen=True)
class FeistelPermutation:
    """A keyed bijection on ``{0..m-1}`` via a Feistel network with cycle walking.

    Uses O(1) memory, so it scales to arbitrarily large universes.  The
    Feistel network operates on ``2k`` bits where ``4**k >= m`` is the
    smallest power-of-four cover of the domain; outputs that fall outside
    ``[0, m)`` are re-encrypted until they land inside (cycle walking), which
    preserves bijectivity on the restricted domain.
    """

    domain_size: int
    keys: tuple[int, ...]
    half_bits: int

    ROUNDS = 4
    _MASK32 = 0xFFFFFFFF

    @classmethod
    def random(cls, m: int, rng: RngLike = None) -> "FeistelPermutation":
        require_positive(m, "m")
        rng = make_rng(rng)
        # number of bits per Feistel half: cover m with an even bit count
        total_bits = max(2, next_power_of_two(m).bit_length() - 1)
        if total_bits % 2:
            total_bits += 1
        keys = tuple(int(rng.integers(1, 1 << 31)) for _ in range(cls.ROUNDS))
        return cls(domain_size=m, keys=keys, half_bits=total_bits // 2)

    def _round(self, value: np.ndarray, key: int) -> np.ndarray:
        # A cheap invertible-free mixing function (only used inside Feistel,
        # where invertibility of the round function is not required).
        v = ((value.astype(np.uint64) * np.uint64(0x9E3779B1) + np.uint64(key))
             & np.uint64(self._MASK32))
        v ^= v >> np.uint64(15)
        v = (v * np.uint64(0x85EBCA77)) & np.uint64(self._MASK32)
        v ^= v >> np.uint64(13)
        return v

    def _encrypt_once(self, x: np.ndarray) -> np.ndarray:
        half = np.uint64(self.half_bits)
        mask = np.uint64((1 << self.half_bits) - 1)
        left = (x >> half) & mask
        right = x & mask
        for key in self.keys:
            left, right = right, (left ^ (self._round(right, key) & mask))
        return (left << half) | right

    def _decrypt_once(self, y: np.ndarray) -> np.ndarray:
        half = np.uint64(self.half_bits)
        mask = np.uint64((1 << self.half_bits) - 1)
        left = (y >> half) & mask
        right = y & mask
        for key in reversed(self.keys):
            left, right = (right ^ (self._round(left, key) & mask)), left
        return (left << half) | right

    def _walk(self, x: np.ndarray, step) -> np.ndarray:
        out = step(x.astype(np.uint64))
        bad = out >= np.uint64(self.domain_size)
        # Cycle walking terminates because the map is a bijection on the
        # covering power-of-four domain, so every cycle re-enters [0, m).
        while np.any(bad):
            out[bad] = step(out[bad])
            bad = out >= np.uint64(self.domain_size)
        return out.astype(np.int64)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if x.size and (x.min() < 0 or x.max() >= self.domain_size):
            raise ValueError("element id out of range for permutation")
        if x.size == 0:
            return x.copy()
        return self._walk(x, self._encrypt_once)

    def invert(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.int64)
        if y.size and (y.min() < 0 or y.max() >= self.domain_size):
            raise ValueError("value out of range for permutation inverse")
        if y.size == 0:
            return y.copy()
        return self._walk(y, self._decrypt_once)


#: Universe size above which the explicit table permutation is replaced by Feistel.
_ARRAY_PERMUTATION_LIMIT = 1 << 22


def make_permutations(
    m: int, count: int = 3, rng: RngLike = None, *, force: str | None = None
) -> tuple[Permutation, ...]:
    """Create ``count`` independent permutations of ``{0..m-1}``.

    ``force`` may be ``"array"`` or ``"feistel"`` to pin the implementation
    (used in tests); by default small universes get exact table permutations
    and large universes get the O(1)-memory Feistel construction.
    """
    require_positive(m, "m")
    require_positive(count, "count")
    rng = make_rng(rng)
    perms: list[Permutation] = []
    for _ in range(count):
        kind = force or ("array" if m <= _ARRAY_PERMUTATION_LIMIT else "feistel")
        if kind == "array":
            perms.append(ArrayPermutation.random(m, rng))
        elif kind == "feistel":
            perms.append(FeistelPermutation.random(m, rng))
        else:
            raise ValueError(f"unknown permutation kind {force!r}")
    return tuple(perms)


@dataclass(frozen=True, eq=False)
class HashFamily:
    """The three shared permutations plus the layout arithmetic of Section III-A.

    A single ``HashFamily`` is shared by *all* batmaps in a collection; only
    the per-batmap range ``r_i`` varies.  Positions returned by
    :meth:`positions` are *within one hash table* (row-local, in ``[0, r)``);
    the interleaved device layout offsets of the paper's formula are produced
    by :meth:`device_positions`.

    Equality is *structural*: two families are equal iff they have the same
    universe, shift and permutations, even when one is a pickled copy of the
    other (e.g. shipped to a worker process for sharded serving).  The
    identity fast path keeps the common same-object comparison O(1).
    """

    universe_size: int
    permutations: tuple[Permutation, ...]
    shift: int

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HashFamily):
            return NotImplemented
        return (
            self.universe_size == other.universe_size
            and self.shift == other.shift
            and self.permutations == other.permutations
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.shift,
                     tuple(hash(p) for p in self.permutations)))

    def __post_init__(self) -> None:
        require_positive(self.universe_size, "universe_size")
        require(len(self.permutations) == 3, "HashFamily requires exactly 3 permutations")
        require(self.shift >= 0, "shift must be >= 0")
        for perm in self.permutations:
            require(perm.domain_size == self.universe_size,
                    "all permutations must share the universe size")

    @classmethod
    def create(
        cls,
        universe_size: int,
        *,
        shift: int = 0,
        rng: RngLike = None,
        force_permutation: str | None = None,
    ) -> "HashFamily":
        perms = make_permutations(universe_size, 3, rng, force=force_permutation)
        return cls(universe_size=universe_size, permutations=perms, shift=shift)

    # ------------------------------------------------------------------ #
    # Row-local positions and payloads
    # ------------------------------------------------------------------ #
    def permuted(self, table: int, elements: np.ndarray) -> np.ndarray:
        """Return ``pi_t(x)`` for table ``t`` (0-based) over an array of elements."""
        require(0 <= table < 3, f"table index must be 0, 1 or 2, got {table}")
        return self.permutations[table].apply(np.asarray(elements, dtype=np.int64))

    def positions(self, table: int, elements: np.ndarray, r: int) -> np.ndarray:
        """Row-local slot indices ``pi_t(x) mod r`` for hash range ``r`` (power of two)."""
        require_power_of_two(r, "r")
        return self.permuted(table, elements) & np.int64(r - 1)

    def payloads(self, table: int, elements: np.ndarray) -> np.ndarray:
        """Compressed payload stored for each element in table ``t``.

        The payload is ``(pi_t(x) >> shift) + 1`` so that 0 is reserved for
        empty slots (NULL).  With the shift chosen by
        :meth:`BatmapConfig.shift_for_universe` the result always fits in the
        configured payload width.
        """
        return (self.permuted(table, elements) >> np.int64(self.shift)) + 1

    def decode(self, table: int, payload: np.ndarray, position: np.ndarray, r: int) -> np.ndarray:
        """Recover element ids from (payload, row-local position) pairs.

        Only valid when ``r >= 2**shift`` (the compression floor), in which
        case the position determines the ``shift`` low-order bits of
        ``pi_t(x)`` exactly.
        """
        require_power_of_two(r, "r")
        require(r >= (1 << self.shift),
                f"decoding requires r >= 2**shift ({1 << self.shift}), got r={r}")
        payload = np.asarray(payload, dtype=np.int64)
        position = np.asarray(position, dtype=np.int64)
        high = (payload - 1) << np.int64(self.shift)
        low = position & np.int64((1 << self.shift) - 1)
        return self.permutations[table].invert(high | low)

    # ------------------------------------------------------------------ #
    # Device (interleaved) layout of Section III-A, Figure 4
    # ------------------------------------------------------------------ #
    @staticmethod
    def device_positions(row_positions: np.ndarray, table: int, r: int, r0: int) -> np.ndarray:
        """Map row-local positions to offsets in the interleaved 1-D device layout.

        ``h = 3*r0 * floor(p / r0) + (p mod r0) + t*r0`` where ``p`` is the
        row-local position (``pi_t(x) mod r``).  Folding a large batmap onto a
        smaller one is then simply ``h mod (3 * r_small)``.
        """
        require_power_of_two(r, "r")
        require_power_of_two(r0, "r0")
        require(r0 <= r, f"r0 ({r0}) must not exceed r ({r})")
        require(0 <= table < 3, f"table index must be 0, 1 or 2, got {table}")
        p = np.asarray(row_positions, dtype=np.int64)
        return 3 * r0 * (p // r0) + (p % r0) + table * r0

    @staticmethod
    def device_size(r: int, r0: int) -> int:
        """Length (in entries) of the interleaved device array for range ``r``."""
        require_power_of_two(r, "r")
        require_power_of_two(r0, "r0")
        require(r0 <= r, f"r0 ({r0}) must not exceed r ({r})")
        return 3 * r

    def max_payload(self) -> int:
        """Largest payload value this family can produce."""
        return ((self.universe_size - 1) >> self.shift) + 1

    @property
    def range_universe(self) -> int:
        """Universe used for hash-range floors.

        For the eager family this is just the universe; extensible families
        return their full :attr:`~ExtensibleHashFamily.capacity` so range
        floors stay stable as the universe grows.
        """
        return self.universe_size


@dataclass(frozen=True, eq=False)
class ExtensibleHashFamily(HashFamily):
    """A hash family whose universe can grow without re-placing anything.

    The eager :class:`HashFamily` materializes permutations of exactly the
    universe, so growing the universe means new permutations and a full
    rehash of every shard — E15's second known limit.  This variant instead
    fixes the permutation domain at a *capacity* chosen so the payload
    compression shift is the same for every universe up to it
    (``BatmapConfig.universe_capacity``), and derives each element's
    parameters lazily from the keyed Feistel permutations — O(1) resident
    memory, O(items touched) work, never O(universe).

    :meth:`grow` is then free: it only widens the admissible element range.
    Because the permutations and shift are untouched, every placement made
    before the growth is bit-identical to one made after — and to a
    from-scratch build at the grown universe with the same seed, since the
    capacity (and hence the derived keys) depends only on the shift plateau,
    not on the exact universe.

    Growth *beyond* the capacity is a genuine payload-encoding limit (the
    compression shift would have to change, invalidating every stored
    payload) and raises ``ValueError``.
    """

    capacity: int = 0

    def __post_init__(self) -> None:
        require_positive(self.universe_size, "universe_size")
        require_positive(self.capacity, "capacity")
        require(self.capacity >= self.universe_size,
                f"capacity ({self.capacity}) must cover the universe "
                f"({self.universe_size})")
        require(len(self.permutations) == 3, "HashFamily requires exactly 3 permutations")
        require(self.shift >= 0, "shift must be >= 0")
        for perm in self.permutations:
            require(perm.domain_size == self.capacity,
                    "extensible family permutations must span the capacity")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, HashFamily):
            return NotImplemented
        return (
            self.universe_size == other.universe_size
            and self.shift == other.shift
            and getattr(other, "capacity", other.universe_size) == self.capacity
            and self.permutations == other.permutations
        )

    def __hash__(self) -> int:
        return hash((self.universe_size, self.shift, self.capacity,
                     tuple(hash(p) for p in self.permutations)))

    @classmethod
    def create(  # type: ignore[override]
        cls,
        universe_size: int,
        *,
        capacity: int,
        shift: int = 0,
        rng: RngLike = None,
    ) -> "ExtensibleHashFamily":
        """Create a lazy family over ``{0..capacity-1}`` serving ``{0..universe_size-1}``.

        The permutations are always Feistel (O(1) memory); with the same
        ``rng`` seed and capacity the derived keys — and therefore every
        placement — are deterministic.
        """
        perms = make_permutations(capacity, 3, rng, force="feistel")
        return cls(universe_size=universe_size, permutations=perms,
                   shift=shift, capacity=capacity)

    def grow(self, new_universe_size: int) -> "ExtensibleHashFamily":
        """Return a family accepting ``{0..new_universe_size-1}``; placements unchanged."""
        require(new_universe_size >= self.universe_size,
                f"cannot shrink the universe ({self.universe_size} -> "
                f"{new_universe_size})")
        if new_universe_size > self.capacity:
            raise ValueError(
                f"universe {new_universe_size} exceeds the family capacity "
                f"{self.capacity}: the payload compression shift would change, "
                "invalidating every stored payload — rebuild the collection "
                "with a larger capacity")
        if new_universe_size == self.universe_size:
            return self
        return ExtensibleHashFamily(
            universe_size=new_universe_size, permutations=self.permutations,
            shift=self.shift, capacity=self.capacity)

    def max_payload(self) -> int:
        """Largest payload value this family can produce (capacity-stable)."""
        return ((self.capacity - 1) >> self.shift) + 1

    @property
    def range_universe(self) -> int:
        """Range floors derive from the capacity so they survive growth."""
        return self.capacity


# --------------------------------------------------------------------------- #
# Persistence (``.npz``, no pickling — families ship inside serving artifacts)
# --------------------------------------------------------------------------- #
def save_family(path, family: HashFamily) -> None:
    """Serialise a :class:`HashFamily` to an ``.npz`` archive.

    Array permutations store their lookup table (the inverse is recomputed on
    load); Feistel permutations store their keys and half width.  The format
    deliberately avoids pickling so spill artifacts stay inspectable and safe
    to load in a serving process.
    """
    arrays: dict[str, np.ndarray] = {
        "universe_size": np.int64(family.universe_size),
        "shift": np.int64(family.shift),
    }
    if isinstance(family, ExtensibleHashFamily):
        arrays["capacity"] = np.int64(family.capacity)
    kinds = []
    for t, perm in enumerate(family.permutations):
        if isinstance(perm, ArrayPermutation):
            kinds.append("array")
            arrays[f"table_{t}"] = perm.table
        elif isinstance(perm, FeistelPermutation):
            kinds.append("feistel")
            arrays[f"feistel_keys_{t}"] = np.asarray(perm.keys, dtype=np.int64)
            arrays[f"feistel_half_bits_{t}"] = np.int64(perm.half_bits)
        else:
            raise TypeError(
                f"cannot serialise permutation of type {type(perm).__name__}")
    arrays["kinds"] = np.array(kinds)
    np.savez(path, **arrays)


def load_family(path) -> HashFamily:
    """Load a :class:`HashFamily` saved by :func:`save_family`.

    The loaded family compares structurally equal to the original, so batmaps
    built before saving remain comparable with ones built after loading.
    """
    with np.load(path, allow_pickle=False) as data:
        universe_size = int(data["universe_size"])
        shift = int(data["shift"])
        capacity = int(data["capacity"]) if "capacity" in data else None
        domain = capacity if capacity is not None else universe_size
        perms: list[Permutation] = []
        for t, kind in enumerate(data["kinds"].tolist()):
            if kind == "array":
                table = np.asarray(data[f"table_{t}"], dtype=np.int64)
                inverse = np.empty(table.size, dtype=np.int64)
                inverse[table] = np.arange(table.size, dtype=np.int64)
                perms.append(ArrayPermutation(table=table, inverse=inverse))
            elif kind == "feistel":
                perms.append(FeistelPermutation(
                    domain_size=domain,
                    keys=tuple(int(k) for k in data[f"feistel_keys_{t}"]),
                    half_bits=int(data[f"feistel_half_bits_{t}"]),
                ))
            else:
                raise ValueError(f"unknown permutation kind {kind!r} in {path}")
    if capacity is not None:
        return ExtensibleHashFamily(universe_size=universe_size,
                                    permutations=tuple(perms), shift=shift,
                                    capacity=capacity)
    return HashFamily(universe_size=universe_size,
                      permutations=tuple(perms), shift=shift)
