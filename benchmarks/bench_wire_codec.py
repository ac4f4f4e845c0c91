"""Wire-v2 codec micro-gate: word-level bit kernel vs the bit-matrix kernel.

Wire format v2 bit-packs every residue row to its modulus width.  The
first kernel did that by blowing each 64-bit word up into 64 ``uint8``
bits (``np.unpackbits``), slicing the low ``w`` bit columns and
re-packing them (``np.packbits``), one Python call per row.  The
word-level kernel in :mod:`repro.ckks.backend.base` packs a whole
``(rows, n)`` residue matrix with a few vectorized ``uint64``
gather/shift/OR passes per distinct row width, and unpacks the same way.

This bench times v2 ``serialize_ciphertext`` and
``deserialize_ciphertext`` at two shapes -- ``n = 1024`` over three
30-bit primes (the ``n1024_light`` serving ring) and paper Set-A
(``n = 4096``, alternating 36/28-bit rows) -- under both kernels.  The
bit-matrix kernel survives only here, as the baseline: a
:class:`NumpyBackend` subclass carrying a copy of it.

Method: one warm-up round, then ``TRIALS`` alternating old/new trials
(alternation cancels slow host-speed drift); each trial times ``REPS``
back-to-back calls and reports the per-call mean.  The table shows the
median and inter-quartile range per kernel.  Both kernels must produce
byte-identical blobs and decode them to identical residues.

Gate: the median old/new ratio is at least ``MIN_SPEEDUP`` for encode
and for decode at both shapes.  Results land in
``results/wire_codec.txt`` and ``results/BENCH_wire_codec.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_wire_codec.py -s
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.analysis.report import render_table
from repro.ckks.backend import use_backend
from repro.ckks.backend.base import ROW_WORD_BYTES, packed_row_bytes
from repro.ckks.backend.numpy_backend import NumpyBackend
from repro.ckks.context import SET_A, CkksContext, toy_parameters
from repro.ckks.encoder import CkksEncoder
from repro.ckks.encryptor import Encryptor
from repro.ckks.keys import KeyGenerator
from repro.ckks.serialization import (
    VERSION_PACKED,
    deserialize_ciphertext,
    serialize_ciphertext,
)

SHAPES = (
    ("n1024 3x30-bit", toy_parameters(n=1024, k=3, prime_bits=30)),
    ("Set-A 36/28-bit", SET_A),
)

TRIALS = 21
REPS = 40
MIN_SPEEDUP = 2.0


# ----------------------------------------------------------------------
# baseline: the bit-matrix kernel, one numpy call chain per row
# ----------------------------------------------------------------------
def _pack_row_bits_matrix(row, bound: int, width: int) -> bytes:
    arr = (
        row
        if isinstance(row, np.ndarray) and row.dtype == np.uint64
        else np.asarray(row, dtype=np.uint64)
    )
    if arr.size and int(arr.max()) >= bound:
        raise ValueError(f"residue {int(arr.max())} outside [0, {bound})")
    bits = np.unpackbits(
        arr.astype(">u8").view(np.uint8).reshape(-1, ROW_WORD_BYTES), axis=1
    )
    return np.packbits(bits[:, 64 - width :].ravel()).tobytes()


def _unpack_row_bits_matrix(data, n: int, bound: int, width: int):
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if bits[n * width :].any():
        raise ValueError("nonzero padding bits in packed residue row")
    cols = np.zeros((n, 64), dtype=np.uint8)
    cols[:, 64 - width :] = bits[: n * width].reshape(n, width)
    vals = np.packbits(cols, axis=1).view(">u8").ravel().astype(np.uint64)
    if vals.size and int(vals.max()) >= bound:
        raise ValueError(f"packed residue {int(vals.max())} outside [0, {bound})")
    return vals


class BitMatrixBackend(NumpyBackend):
    """The numpy backend with the bit-matrix v2 codec."""

    def pack_rows_bits(self, handle, bounds):
        return b"".join(
            _pack_row_bits_matrix(row, int(b), int(b).bit_length())
            for row, b in zip(handle, bounds)
        )

    def unpack_rows_bits(self, data, n, bounds):
        view = memoryview(data)
        out = np.empty((len(bounds), n), dtype=np.uint64)
        offset = 0
        for i, bound in enumerate(bounds):
            width = int(bound).bit_length()
            nbytes = packed_row_bytes(n, width)
            if offset + nbytes > len(view):
                raise ValueError("truncated packed row")
            out[i] = _unpack_row_bits_matrix(
                view[offset : offset + nbytes], n, int(bound), width
            )
            offset += nbytes
        if offset != len(view):
            raise ValueError("trailing bytes after packed rows")
        return out


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _per_call_us(fn) -> float:
    start = time.perf_counter()
    for _ in range(REPS):
        fn()
    return (time.perf_counter() - start) / REPS * 1e6


def _quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q3 - q1


def _codec_ops(params, backend):
    """(encode, decode, blob) closures for one seeded ciphertext."""
    ctx = CkksContext(params, backend=backend)
    keygen = KeyGenerator(ctx, seed=11)
    ct = Encryptor(ctx, keygen.public_key(), seed=12).encrypt(
        CkksEncoder(ctx).encode([0.25j + i / 16 for i in range(16)])
    )

    def encode():
        with use_backend(backend):
            return serialize_ciphertext(ct, VERSION_PACKED)

    blob = encode()
    return encode, lambda: deserialize_ciphertext(blob, ctx), blob


def test_wire_codec_gate(emit, emit_json):
    rows = []
    failures = []
    for label, params in SHAPES:
        kernels = {
            "bit-matrix": _codec_ops(params, BitMatrixBackend()),
            "word-level": _codec_ops(params, NumpyBackend()),
        }
        old, new = kernels["bit-matrix"], kernels["word-level"]
        assert old[2] == new[2], f"{label}: kernels disagree on v2 bytes"
        old_ct, new_ct = old[1](), new[1]()
        assert [p.residues for p in old_ct.polys] == [
            p.residues for p in new_ct.polys
        ], f"{label}: kernels decode different residues"
        assert serialize_ciphertext(new_ct, VERSION_PACKED) == new[2]
        for way, i in (("encode", 0), ("decode", 1)):
            samples = {k: [] for k in kernels}
            for name in kernels:  # warm-up
                _per_call_us(kernels[name][i])
            for _ in range(TRIALS):
                for name in kernels:
                    samples[name].append(_per_call_us(kernels[name][i]))
            (old_med, old_iqr), (new_med, new_iqr) = (
                _quartiles(samples[k]) for k in kernels
            )
            ratio = old_med / new_med
            rows.append(
                (label, way, old_med, old_iqr, new_med, new_iqr, ratio)
            )
            emit_json(
                op=f"{way} v2 ciphertext",
                shape=label,
                n=params.n,
                trials=TRIALS,
                reps_per_trial=REPS,
                bit_matrix_us_median=round(old_med, 2),
                bit_matrix_us_iqr=round(old_iqr, 2),
                word_level_us_median=round(new_med, 2),
                word_level_us_iqr=round(new_iqr, 2),
                speedup=round(ratio, 3),
                gate=MIN_SPEEDUP,
            )
            if ratio < MIN_SPEEDUP:
                failures.append(f"{label} {way}: {ratio:.2f}x < {MIN_SPEEDUP}x")

    emit(
        "wire_codec",
        render_table(
            "wire-v2 codec: bit-matrix vs word-level kernel (us per ciphertext)",
            [
                "shape", "op", "bit-matrix med", "IQR",
                "word-level med", "IQR", "speedup",
            ],
            [
                (label, way, f"{om:.1f}", f"{oi:.1f}", f"{nm:.1f}", f"{ni:.1f}",
                 f"{r:.2f}x")
                for label, way, om, oi, nm, ni, r in rows
            ],
            note=(
                f"{TRIALS} alternating trials x {REPS} calls after warm-up; "
                f"gate: median speedup >= {MIN_SPEEDUP}x, byte-identical blobs"
            ),
        ),
    )
    assert not failures, "; ".join(failures)
