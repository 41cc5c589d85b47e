"""Unit and property tests for torrent metainfo and piece geometry."""

import hashlib

import pytest
from hypothesis import given, strategies as st

from repro.protocol.metainfo import (
    BlockRef,
    Metainfo,
    PieceGeometry,
    make_metainfo,
)


class TestPieceGeometry:
    def test_even_split(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        assert geometry.num_pieces == 4
        assert geometry.piece_length(0) == 256
        assert geometry.piece_length(3) == 256
        assert geometry.blocks_in_piece(0) == 4

    def test_short_last_piece(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=64)
        assert geometry.num_pieces == 4
        assert geometry.piece_length(3) == 1000 - 3 * 256

    def test_short_last_block(self):
        geometry = PieceGeometry(100, piece_size=100, block_size=64)
        blocks = geometry.blocks(0)
        assert [b.length for b in blocks] == [64, 36]
        assert blocks[1].offset == 64

    def test_blocks_cover_piece_exactly(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=60)
        for piece in range(geometry.num_pieces):
            blocks = geometry.blocks(piece)
            assert sum(b.length for b in blocks) == geometry.piece_length(piece)
            assert blocks[0].offset == 0

    def test_block_ref(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        ref = geometry.block_ref(1, 2)
        assert ref == BlockRef(1, 128, 64)

    def test_block_ref_out_of_range(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        with pytest.raises(IndexError):
            geometry.block_ref(0, 4)

    def test_piece_out_of_range(self):
        geometry = PieceGeometry(1024, piece_size=256, block_size=64)
        with pytest.raises(IndexError):
            geometry.piece_length(4)

    def test_total_blocks(self):
        geometry = PieceGeometry(1000, piece_size=256, block_size=64)
        assert geometry.total_blocks == sum(
            geometry.blocks_in_piece(p) for p in range(4)
        )

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            PieceGeometry(0)
        with pytest.raises(ValueError):
            PieceGeometry(100, piece_size=0)
        with pytest.raises(ValueError):
            PieceGeometry(100, piece_size=16, block_size=32)

    def test_block_ref_validation(self):
        with pytest.raises(ValueError):
            BlockRef(-1, 0, 1)
        with pytest.raises(ValueError):
            BlockRef(0, 0, 0)


class TestBlockRefValue:
    """Blocks hash, compare and print like the (piece, offset, length)
    triple; set order over them feeds CANCEL order and traces."""

    @given(
        st.integers(0, 10**6), st.integers(0, 10**9), st.integers(1, 1 << 20)
    )
    def test_hash_is_the_triple_hash(self, piece, offset, length):
        assert hash(BlockRef(piece, offset, length)) == hash((piece, offset, length))

    def test_equality(self):
        assert BlockRef(1, 2, 3) == BlockRef(1, 2, 3)
        assert BlockRef(1, 2, 3) != BlockRef(1, 2, 4)
        assert len({BlockRef(1, 2, 3), BlockRef(1, 2, 3)}) == 1

    def test_repr(self):
        assert repr(BlockRef(4, 16384, 512)) == (
            "BlockRef(piece=4, offset=16384, length=512)"
        )

    def test_fields(self):
        block = BlockRef(4, 16384, 512)
        assert (block.piece, block.offset, block.length) == (4, 16384, 512)

    @pytest.mark.parametrize(
        "piece, offset, length",
        [(-1, 0, 1), (0, -1, 1), (0, 0, 0), (0, 0, -5)],
    )
    def test_invalid_triples_are_rejected(self, piece, offset, length):
        with pytest.raises(ValueError, match="invalid block reference"):
            BlockRef(piece, offset, length)

    def test_immutable(self):
        block = BlockRef(0, 0, 1)
        with pytest.raises(AttributeError):
            block.length = 2


class TestMetainfo:
    def test_synthetic_hashes_verify(self):
        meta = Metainfo.synthetic("t", 1000, piece_size=256, block_size=64)
        for piece in range(meta.geometry.num_pieces):
            assert meta.verify_piece(piece, meta.piece_payload(piece))

    def test_corrupt_piece_fails(self):
        meta = Metainfo.synthetic("t", 1000, piece_size=256, block_size=64)
        data = bytearray(meta.piece_payload(0))
        data[0] ^= 0xFF
        assert not meta.verify_piece(0, bytes(data))

    def test_wrong_length_fails(self):
        meta = Metainfo.synthetic("t", 1000, piece_size=256, block_size=64)
        assert not meta.verify_piece(0, b"short")

    def test_payload_is_deterministic(self):
        a = Metainfo.synthetic("t", 512, piece_size=256, block_size=64)
        b = Metainfo.synthetic("t", 512, piece_size=256, block_size=64)
        assert a.piece_payload(1) == b.piece_payload(1)
        assert a.info_hash == b.info_hash

    def test_different_names_different_content(self):
        a = Metainfo.synthetic("a", 512, piece_size=256, block_size=64)
        b = Metainfo.synthetic("b", 512, piece_size=256, block_size=64)
        assert a.piece_payload(0) != b.piece_payload(0)
        assert a.info_hash != b.info_hash

    def test_torrent_file_roundtrip(self):
        meta = Metainfo.synthetic("movie", 5000, piece_size=1024, block_size=256)
        data = meta.to_torrent_file()
        recovered = Metainfo.from_torrent_file(data, block_size=256)
        assert recovered.name == "movie"
        assert recovered.info_hash == meta.info_hash
        assert recovered.piece_hashes == meta.piece_hashes
        assert recovered.geometry.total_size == 5000
        assert recovered.announce == meta.announce

    def test_info_hash_is_sha1_of_info_dict(self):
        meta = Metainfo.synthetic("x", 300, piece_size=256, block_size=64)
        assert len(meta.info_hash) == 20
        from repro.protocol.bencode import bencode

        assert meta.info_hash == hashlib.sha1(bencode(meta._info_dict())).digest()

    def test_hash_count_must_match(self):
        geometry = PieceGeometry(512, piece_size=256, block_size=64)
        with pytest.raises(ValueError):
            Metainfo("t", geometry, [b"\x00" * 20])

    def test_hash_length_validated(self):
        geometry = PieceGeometry(256, piece_size=256, block_size=64)
        with pytest.raises(ValueError):
            Metainfo("t", geometry, [b"\x00" * 19])

    def test_malformed_torrent_file(self):
        with pytest.raises(ValueError):
            Metainfo.from_torrent_file(b"not bencoded")
        with pytest.raises(ValueError):
            Metainfo.from_torrent_file(b"de")

    def test_make_metainfo(self):
        meta = make_metainfo("t", num_pieces=7, piece_size=128, block_size=32)
        assert meta.geometry.num_pieces == 7
        assert meta.geometry.total_size == 7 * 128

    def test_make_metainfo_short_last_piece(self):
        meta = make_metainfo(
            "t", num_pieces=3, piece_size=128, block_size=32, last_piece_size=40
        )
        assert meta.geometry.num_pieces == 3
        assert meta.geometry.piece_length(2) == 40

    def test_make_metainfo_validation(self):
        with pytest.raises(ValueError):
            make_metainfo("t", num_pieces=0)
        with pytest.raises(ValueError):
            make_metainfo("t", num_pieces=2, piece_size=64, last_piece_size=65)


@given(
    total=st.integers(1, 10_000),
    piece=st.integers(1, 2_048),
    block=st.integers(1, 2_048),
)
def test_property_geometry_partition(total, piece, block):
    """Pieces partition the content; blocks partition each piece."""
    if block > piece:
        piece, block = block, piece
    geometry = PieceGeometry(total, piece_size=piece, block_size=block)
    assert (
        sum(geometry.piece_length(p) for p in range(geometry.num_pieces)) == total
    )
    for p in range(geometry.num_pieces):
        blocks = geometry.blocks(p)
        assert sum(b.length for b in blocks) == geometry.piece_length(p)
        offsets = [b.offset for b in blocks]
        assert offsets == sorted(offsets)
        # Contiguity: each block starts where the previous one ends.
        for first, second in zip(blocks, blocks[1:]):
            assert second.offset == first.offset + first.length
