"""Piece-ownership bitfield.

Each peer advertises which pieces it holds with a compact bitmap: one bit
per piece, most significant bit of the first byte = piece 0, spare bits at
the end of the last byte must be zero (BEP 3).  On top of wire
(de)serialisation, this class offers the set operations the rest of the
library relies on: counting, iteration over set/missing pieces, and the
"has pieces the other side misses" test that drives INTERESTED messages.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, List, Optional

# The set bits of each byte value, as offsets from the byte's first
# piece (MSB first): turns a bitmap scan into one table lookup per
# non-zero byte.
_BYTE_OFFSETS = tuple(
    tuple(offset for offset in range(8) if value & (0x80 >> offset))
    for value in range(256)
)


class Bitfield:
    """Mutable fixed-size bitmap over ``num_pieces`` pieces.

    The bitmap is the representation.  The held indices are also
    mirrored in a plain ``set`` so swarm-scale consumers (the
    rarity-bucket piece index) can intersect piece sets at C speed
    instead of probing one bit at a time; the mirror is built on the
    first :attr:`have_set` read and kept current from then on, so
    bitfields nobody intersects (most remote views) never pay for it.
    Code that writes ``_bits`` directly must update ``_count`` and, when
    it is not ``None``, ``_have`` with it.
    """

    __slots__ = ("_num_pieces", "_bits", "_count", "_have")

    def __init__(self, num_pieces: int, have: Iterable[int] = ()):
        if num_pieces < 0:
            raise ValueError("num_pieces must be non-negative")
        self._num_pieces = num_pieces
        self._bits = bytearray((num_pieces + 7) // 8)
        self._count = 0
        self._have: Optional[set] = None
        for index in have:
            self.set(index)

    # -- construction ----------------------------------------------------

    @classmethod
    def full(cls, num_pieces: int) -> "Bitfield":
        """A bitfield with every piece set (a seed's bitfield)."""
        field = cls(num_pieces)
        for byte_index in range(len(field._bits)):
            field._bits[byte_index] = 0xFF
        spare = len(field._bits) * 8 - num_pieces
        if spare and field._bits:
            field._bits[-1] &= 0xFF << spare & 0xFF
        field._count = num_pieces
        return field

    @classmethod
    def from_bytes(cls, data: bytes, num_pieces: int) -> "Bitfield":
        """Parse a wire-format bitfield; validates length and spare bits."""
        if num_pieces < 0:
            raise ValueError("num_pieces must be non-negative")
        expected = (num_pieces + 7) // 8
        if len(data) != expected:
            raise ValueError(
                "bitfield is %d bytes, expected %d for %d pieces"
                % (len(data), expected, num_pieces)
            )
        spare = expected * 8 - num_pieces
        if spare and data[-1] & ((1 << spare) - 1):
            raise ValueError("spare bits in final bitfield byte are not zero")
        field = cls.__new__(cls)
        field._num_pieces = num_pieces
        field._bits = bytearray(data)
        field._count = bin(int.from_bytes(data, "big")).count("1")
        field._have = None
        return field

    def to_bytes(self) -> bytes:
        """Wire-format serialisation."""
        return bytes(self._bits)

    def copy(self) -> "Bitfield":
        clone = Bitfield(self._num_pieces)
        clone._bits = bytearray(self._bits)
        clone._count = self._count
        if self._have is not None:
            clone._have = set(self._have)
        return clone

    # -- single-piece operations ------------------------------------------

    def _check(self, index: int) -> None:
        if not 0 <= index < self._num_pieces:
            raise IndexError("piece index %d out of range [0, %d)" % (index, self._num_pieces))

    def has(self, index: int) -> bool:
        self._check(index)
        return bool(self._bits[index >> 3] & (0x80 >> (index & 7)))

    def set(self, index: int) -> bool:
        """Mark *index* as held.  Returns True if the bit changed."""
        self._check(index)
        mask = 0x80 >> (index & 7)
        if self._bits[index >> 3] & mask:
            return False
        self._bits[index >> 3] |= mask
        self._count += 1
        if self._have is not None:
            self._have.add(index)
        return True

    def clear(self, index: int) -> bool:
        """Mark *index* as missing.  Returns True if the bit changed."""
        self._check(index)
        mask = 0x80 >> (index & 7)
        if not self._bits[index >> 3] & mask:
            return False
        self._bits[index >> 3] &= ~mask & 0xFF
        self._count -= 1
        if self._have is not None:
            self._have.discard(index)
        return True

    # -- aggregates --------------------------------------------------------

    @property
    def num_pieces(self) -> int:
        return self._num_pieces

    @property
    def count(self) -> int:
        """Number of pieces held."""
        return self._count

    @property
    def missing(self) -> int:
        """Number of pieces not held."""
        return self._num_pieces - self._count

    def is_complete(self) -> bool:
        return self._count == self._num_pieces

    def is_empty(self) -> bool:
        return self._count == 0

    @property
    def have_set(self) -> AbstractSet[int]:
        """The held piece indices as a set (live view — do not mutate).

        This is what makes rarity-bucket intersections O(min(|bucket|,
        |have|)) at C speed; treat it as read-only.  The first read
        builds it from the bitmap; the same object is then kept current
        by every later change, so a caller may hold on to it."""
        if self._have is None:
            self._have = set(self._held())
        return self._have

    def have_indices(self) -> Iterator[int]:
        """Iterate over indices of held pieces, in increasing order."""
        return iter(self._held())

    def _held(self) -> List[int]:
        offsets = _BYTE_OFFSETS
        return [
            (byte_index << 3) + offset
            for byte_index, value in enumerate(self._bits)
            if value
            for offset in offsets[value]
        ]

    def missing_indices(self) -> Iterator[int]:
        """Iterate over indices of missing pieces, in increasing order."""
        for index in range(self._num_pieces):
            if not self._bits[index >> 3] & (0x80 >> (index & 7)):
                yield index

    def as_int(self) -> int:
        """The bits as one big-endian integer (piece 0 at the most
        significant end, spare padding bits zero): a cheap basis for
        whole-bitfield boolean algebra at C speed.  ``a.as_int() &
        ~b.as_int()`` is nonzero exactly when ``a`` holds a piece ``b``
        misses — the complement's infinite high ones and the padding
        positions never intersect a valid bitfield's finite bits."""
        return int.from_bytes(self._bits, "big")

    def interesting_in(self, other: "Bitfield") -> bool:
        """True when *other* holds at least one piece this bitfield misses.

        This is the protocol's definition of interest: peer A is interested
        in peer B when B has pieces A does not have (paper §II-A).
        """
        if other._num_pieces != self._num_pieces:
            raise ValueError("bitfields cover different torrents")
        return bool(int.from_bytes(other._bits, "big") & ~int.from_bytes(self._bits, "big"))

    def pieces_only_in(self, other: "Bitfield") -> Iterator[int]:
        """Indices held by *other* but missing here."""
        if other._num_pieces != self._num_pieces:
            raise ValueError("bitfields cover different torrents")
        for index in range(self._num_pieces):
            mask = 0x80 >> (index & 7)
            byte = index >> 3
            if other._bits[byte] & mask and not self._bits[byte] & mask:
                yield index

    # -- dunder ------------------------------------------------------------

    def __len__(self) -> int:
        return self._num_pieces

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self._num_pieces and self.has(index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitfield):
            return NotImplemented
        return self._num_pieces == other._num_pieces and self._bits == other._bits

    def __hash__(self) -> int:  # pragma: no cover - mutable, but handy in sets of frozen copies
        return hash((self._num_pieces, bytes(self._bits)))

    def __repr__(self) -> str:
        return "Bitfield(%d/%d pieces)" % (self._count, self._num_pieces)
