"""Property/fuzz tests for the v2 bit-packing kernels and seed expansion.

Wire format v2 stands on two cross-backend bit-exactness contracts:

* ``pack_rows_bits`` / ``unpack_rows_bits`` -- every residue row packs
  to exactly ``ceil(n * width / 8)`` bytes and round-trips losslessly at
  every modulus width, on every backend, producing byte-identical wire
  bytes; truncation or corruption at *any bit* never decodes silently
  (padding bits must be zero, residues must stay below their modulus).
  Every backend runs the same word-level numpy kernel, so the kernel is
  held byte for byte to the big-int kernels of the numpy-less fallback;
* ``expand_uniform_poly`` -- the seed-expanded uniform column of a v2
  key must regenerate bit-identically everywhere, or a key uploaded
  from one backend decrypts to garbage on another.

Properties run over seeded ``random.Random`` cases only (no external
property-testing dependency; every run replays identical cases), the
convention of ``tests/serving/test_framing_property.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.ckks.backend.base import (
    _pack_row_bits_py,
    _unpack_row_bits_py,
    packed_row_bytes,
)
from repro.ckks.backend.numpy_backend import NumpyBackend
from repro.ckks.backend.reference import ReferenceBackend
from repro.ckks.modarith import Modulus
from repro.ckks.sampling import KEY_SEED_BYTES, expand_uniform_poly

REF = ReferenceBackend()
NP = NumpyBackend()
BACKENDS = [REF, NP]

#: Odd bounds spanning every interesting width class: below/at/above
#: byte boundaries, the 30-bit toy primes, and the paper's 52-54-bit
#: range (capped at 52 so products fit the backends' uint64 paths).
WIDTH_BOUNDS = [
    3, 5, 13, 127, 255, 257, 8191, (1 << 29) + 11, (1 << 30) - 35,
    (1 << 51) + 129, (1 << 52) - 47,
]


def _random_rows(rng: random.Random, bounds, n):
    return [[rng.randrange(b) for _ in range(n)] for b in bounds]


# ----------------------------------------------------------------------
# round-trip at every width
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("width", range(2, 53))
    def test_every_width_roundtrips_on_both_backends(self, width):
        rng = random.Random(width)
        bound = (1 << width) - 1  # odd-ish bound of exactly this width
        n = 16
        rows = _random_rows(rng, [bound, bound], n)
        # force boundary values in: 0 and bound-1 must survive packing
        rows[0][0] = 0
        rows[0][1] = bound - 1
        blobs = []
        for be in BACKENDS:
            handle = be.from_rows([list(r) for r in rows])
            data = be.pack_rows_bits(handle, [bound, bound])
            assert len(data) == 2 * packed_row_bytes(n, width)
            back = be.unpack_rows_bits(data, n, [bound, bound])
            assert be.to_rows(back) == rows
            blobs.append(data)
        assert blobs[0] == blobs[1], "backends disagree on wire bytes"

    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_widths_across_rows(self, seed):
        rng = random.Random(1000 + seed)
        bounds = rng.sample(WIDTH_BOUNDS, rng.randrange(2, 6))
        n = rng.choice([8, 24, 64])
        rows = _random_rows(rng, bounds, n)
        blobs = []
        for be in BACKENDS:
            handle = be.from_rows([list(r) for r in rows])
            data = be.pack_rows_bits(handle, bounds)
            expected = sum(
                packed_row_bytes(n, b.bit_length()) for b in bounds
            )
            assert len(data) == expected
            back = be.unpack_rows_bits(data, n, bounds)
            assert be.to_rows(back) == rows
            blobs.append(data)
        assert blobs[0] == blobs[1]

    def test_pack_rejects_residue_at_or_above_bound(self):
        for be in BACKENDS:
            handle = be.from_rows([[0, 1, 7, 3]])
            with pytest.raises(ValueError):
                be.pack_rows_bits(handle, [7])  # 7 >= bound 7


# ----------------------------------------------------------------------
# the word-level kernel against the big-int ground truth
# ----------------------------------------------------------------------
def _py_pack(rows, bounds):
    """Wire bytes from the numpy-less big-int kernel, row by row."""
    return b"".join(
        _pack_row_bits_py(row, b, b.bit_length()) for row, b in zip(rows, bounds)
    )


def _py_unpack(data, n, bounds):
    rows, offset = [], 0
    for b in bounds:
        nbytes = packed_row_bytes(n, b.bit_length())
        chunk = data[offset : offset + nbytes]
        rows.append(_unpack_row_bits_py(chunk, n, b, b.bit_length()))
        offset += nbytes
    return rows


def _width_bounds(width):
    """Two bounds of exactly ``width`` bits: the largest (all residue
    bits reachable) and one just past a power of two (top bit rare)."""
    if width == 1:
        return [1, 1]
    return [(1 << width) - 1, (1 << (width - 1)) + 1]


KERNEL_NS = (1, 3, 7, 8, 13, 64, 65, 1024)


class TestWordKernelMatchesBigInt:
    """Both backends route v2 packing through one numpy kernel, so
    comparing the backends with each other proves nothing; the big-int
    kernels (the numpy-less fallback) are the independent ground truth."""

    @pytest.mark.parametrize("width", range(1, 65))
    def test_every_width_and_ring_byte_identical(self, width):
        rng = random.Random(7000 + width)
        bounds = _width_bounds(width)
        for n in KERNEL_NS:
            rows = _random_rows(rng, bounds, n)
            rows[0][0] = 0
            rows[0][-1] = bounds[0] - 1
            rows[1][n // 2] = bounds[1] - 1
            expected = _py_pack(rows, bounds)
            for be in BACKENDS:
                data = be.pack_rows_bits(be.from_rows(rows), bounds)
                assert data == expected, (width, n, be.name)
                assert be.to_rows(be.unpack_rows_bits(data, n, bounds)) == rows
            assert _py_unpack(expected, n, bounds) == rows

    @pytest.mark.parametrize(
        "widths",
        [(36, 28, 36, 28), (28, 36, 45, 28, 36, 45), (64, 1, 30, 1, 64), (13, 52, 13)],
    )
    @pytest.mark.parametrize("n", (3, 8, 24, 1024))
    def test_non_adjacent_equal_widths(self, widths, n):
        rng = random.Random(sum(widths) * n)
        bounds = [rng.randrange(1 << (w - 1), 1 << w) if w > 1 else 1 for w in widths]
        rows = _random_rows(rng, bounds, n)
        expected = _py_pack(rows, bounds)
        for be in BACKENDS:
            data = be.pack_rows_bits(be.from_rows(rows), bounds)
            assert data == expected
            assert be.to_rows(be.unpack_rows_bits(data, n, bounds)) == rows

    @pytest.mark.parametrize("n", (3, 8))
    def test_every_bit_flip_agrees_with_big_int(self, n):
        """Flip each bit of a mixed-width blob: the word kernel raises
        exactly when the big-int kernel does, and otherwise decodes the
        same residues."""
        bounds = [(1 << 35) + 3, (1 << 27) + 9, (1 << 35) + 3, (1 << 27) + 9]
        data = _py_pack(_random_rows(random.Random(n), bounds, n), bounds)
        for bit in range(8 * len(data)):
            corrupt = bytearray(data)
            corrupt[bit // 8] ^= 1 << (7 - bit % 8)
            try:
                want = _py_unpack(bytes(corrupt), n, bounds)
            except ValueError:
                with pytest.raises(ValueError):
                    NP.unpack_rows_bits(bytes(corrupt), n, bounds)
                continue
            assert NP.to_rows(NP.unpack_rows_bits(bytes(corrupt), n, bounds)) == want

    def test_numpy_less_fallback_is_the_same_codec(self, monkeypatch):
        """The base methods' numpy-less branch (big-int kernels) writes
        and reads the same bytes, with the same length checks."""
        from repro.ckks.backend import base

        bounds = [(1 << 35) + 3, (1 << 27) + 9, (1 << 35) + 3]
        rows = _random_rows(random.Random(5), bounds, 13)
        expected = NP.pack_rows_bits(NP.from_rows(rows), bounds)
        monkeypatch.setattr(base, "_np", None)
        assert REF.pack_rows_bits(rows, bounds) == expected
        assert REF.unpack_rows_bits(expected, 13, bounds) == rows
        for bad in (expected[:-1], expected + b"\x00"):
            with pytest.raises(ValueError):
                REF.unpack_rows_bits(bad, 13, bounds)

    def test_decoded_matrix_is_owned_and_writable(self):
        bounds = [(1 << 29) + 11] * 2
        data = _py_pack(_random_rows(random.Random(3), bounds, 64), bounds)
        mat = NP.unpack_rows_bits(data, 64, bounds)
        assert mat.flags.owndata and mat.flags.writeable
        assert mat.shape == (2, 64)
        assert isinstance(REF.unpack_rows_bits(data, 64, bounds)[0], list)


# ----------------------------------------------------------------------
# truncation and corruption at every bit boundary
# ----------------------------------------------------------------------
class TestCorruption:
    def _packed(self, be, bounds, n, seed=7):
        rng = random.Random(seed)
        rows = _random_rows(rng, bounds, n)
        return be.pack_rows_bits(be.from_rows(rows), bounds)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_every_truncation_raises(self, be):
        bounds = [(1 << 13) - 5, (1 << 30) - 35]
        data = self._packed(be, bounds, n=8)
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                be.unpack_rows_bits(data[:cut], 8, bounds)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_trailing_bytes_raise(self, be):
        bounds = [(1 << 13) - 5]
        data = self._packed(be, bounds, n=8)
        with pytest.raises(ValueError):
            be.unpack_rows_bits(data + b"\x00", 8, bounds)

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_bitflip_never_decodes_silently_out_of_range(self, be):
        """Flip every bit of a packed row: the decode either raises or
        yields residues all strictly below the bound -- corrupt padding
        bits and out-of-range residues are always caught."""
        bound = (1 << 29) + 11  # odd width, so rows carry padding bits
        n = 8
        data = self._packed(be, [bound], n)
        for bit in range(8 * len(data)):
            corrupt = bytearray(data)
            corrupt[bit // 8] ^= 1 << (7 - bit % 8)
            try:
                rows = be.to_rows(be.unpack_rows_bits(bytes(corrupt), n, [bound]))
            except ValueError:
                continue
            assert all(0 <= v < bound for v in rows[0])

    @pytest.mark.parametrize("be", BACKENDS, ids=lambda b: b.name)
    def test_nonzero_padding_bits_raise(self, be):
        """The zero pad completing the last byte is load-bearing: a set
        bit there is corruption, not slack."""
        bound = (1 << 29) + 11  # width 30 -> 8*30=240 bits, 0 pad at n=8
        n = 3  # 90 bits -> 6 padding bits in the last byte
        data = self._packed(be, [bound], n)
        assert len(data) == packed_row_bytes(n, 30)
        corrupt = bytearray(data)
        corrupt[-1] |= 0x01  # lowest padding bit
        with pytest.raises(ValueError, match="padding"):
            be.unpack_rows_bits(bytes(corrupt), n, [bound])


# ----------------------------------------------------------------------
# seeded key expansion
# ----------------------------------------------------------------------
class TestSeedExpansion:
    MODULI = [Modulus((1 << 30) - 35), Modulus((1 << 30) - 107)]

    def test_deterministic(self):
        seed = bytes(range(KEY_SEED_BYTES))
        a = expand_uniform_poly(seed, 3, 16, self.MODULI)
        b = expand_uniform_poly(seed, 3, 16, self.MODULI)
        assert a == b

    def test_index_and_seed_separate_streams(self):
        seed = bytes(range(KEY_SEED_BYTES))
        other = bytes(KEY_SEED_BYTES)
        assert expand_uniform_poly(seed, 0, 16, self.MODULI) != (
            expand_uniform_poly(seed, 1, 16, self.MODULI)
        )
        assert expand_uniform_poly(seed, 0, 16, self.MODULI) != (
            expand_uniform_poly(other, 0, 16, self.MODULI)
        )

    def test_wrong_seed_length_rejected(self):
        with pytest.raises(ValueError):
            expand_uniform_poly(b"short", 0, 16, self.MODULI)

    def test_residues_in_range(self):
        seed = b"\xab" * KEY_SEED_BYTES
        poly = expand_uniform_poly(seed, 0, 64, self.MODULI)
        for row, m in zip(poly.residues, self.MODULI):
            assert all(0 <= v < m.value for v in row)

    def test_bit_identical_across_backends(self):
        """The expansion is pure Python by construction, so the *wire
        bytes* of an expanded column agree across backends exactly."""
        from repro.ckks.backend import use_backend

        seed = b"\x5a" * KEY_SEED_BYTES
        blobs = []
        for name in ("reference", "numpy"):
            with use_backend(name):
                poly = expand_uniform_poly(seed, 2, 32, self.MODULI)
                blobs.append(tuple(tuple(r) for r in poly.residues))
        assert blobs[0] == blobs[1]
