"""Regenerate the golden test vectors under ``tests/vectors/``.

Three fixture families are frozen here:

* ``ntt_n64.json`` -- full known-answer rows for the negacyclic
  NTT/INTT at ``n = 64`` in both numpy prime regimes (30-bit native
  multiply, 50-bit float-assisted Barrett), plus a dyadic product row.
* ``trace_n1024.json`` -- SHA-256 digests of every stage of one
  deterministic encrypt -> multiply -> relinearize -> rescale -> decrypt
  trace at ``n = 1024`` (Set-A-shaped, ``k = 2``), with the head of the
  decoded slot vector stored verbatim.
* ``wire_v2.json`` -- SHA-256 digests (and lengths) of seeded wire-v2
  blobs: ciphertexts at ``n = 1024`` on a 30-bit basis and at ``n = 8``
  on a mixed 36/28/45-bit basis (the Set-A widths, whose rows do not
  fill whole 64-bit words), a plaintext, and full and seed-expanded
  relinearization keys.  v2 bytes are a compatibility contract, so a
  codec change must leave every digest untouched.

The point of freezing (rather than comparing against the reference
backend at test time) is that a regression that hits *both* backends --
a twiddle-table change, an encoder tweak, a sampler reordering -- is
still caught, and the known-answer tests keep working on hosts where
only one backend is importable.

Regenerate (only when an intentional change invalidates the vectors)::

    PYTHONPATH=src python tests/vectors/regenerate.py

Vectors are always produced by the **reference** backend -- the ground
truth -- regardless of the environment's backend selection.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

VECTORS_DIR = pathlib.Path(__file__).resolve().parent

NTT_N = 64
NTT_PRIME_BITS = (30, 50)

TRACE_PARAMS = dict(n=1024, k=2, prime_bits=30, scale=2.0**28)
TRACE_KEYGEN_SEED = 2024
TRACE_ENCRYPTOR_SEED = 2025
TRACE_DECODE_ATOL = 1e-3
TRACE_HEAD_SLOTS = 8

#: Set-A's prime widths (36 + 28 data, 45 special) at a ring small
#: enough that no row is a whole number of 64-bit words.
WIRE_MIXED_PARAMS = dict(n=8, modulus_bits=(36, 28, 45), scale=2.0**28)
WIRE_KEYGEN_SEED = 4242
WIRE_ENCRYPTOR_SEED = 4243
WIRE_EXPANSION_SEED = bytes(range(32))


def rows_digest(rows) -> str:
    """Canonical SHA-256 of a nested list-of-ints structure."""
    blob = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def compute_ntt_vectors() -> dict:
    """Known-answer NTT/INTT/dyadic rows, computed on the active backend."""
    from repro.ckks.backend import get_backend
    from repro.ckks.ntt import NTTTables
    from repro.ckks.primes import make_modulus_chain

    be = get_backend()
    out = {"n": NTT_N, "cases": []}
    for bits in NTT_PRIME_BITS:
        modulus = make_modulus_chain(NTT_N, [bits], 54)[0]
        tables = NTTTables(NTT_N, modulus)
        rng = random.Random(bits)
        row = [rng.randrange(modulus.value) for _ in range(NTT_N)]
        other = [rng.randrange(modulus.value) for _ in range(NTT_N)]
        forward = be.ntt_forward(tables, row)
        out["cases"].append(
            {
                "prime_bits": bits,
                "modulus": modulus.value,
                "input": row,
                "forward": forward,
                "inverse_of_forward": be.ntt_inverse(tables, forward),
                "dyadic_other": other,
                "dyadic_product": be.dyadic_mul(modulus, row, other),
            }
        )
    return out


def trace_values(slot_count: int):
    """The deterministic slot vector encrypted by the golden trace."""
    return [
        complex((i % 7) / 7.0, (i % 11) / 11.0 - 0.5) for i in range(slot_count)
    ]


def compute_trace() -> dict:
    """One full pipeline at n = 1024, digested stage by stage."""
    from repro.ckks.context import CkksContext, toy_parameters
    from repro.ckks.decryptor import Decryptor
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor
    from repro.ckks.evaluator import Evaluator
    from repro.ckks.keys import KeyGenerator

    ctx = CkksContext(toy_parameters(**TRACE_PARAMS))
    keygen = KeyGenerator(ctx, seed=TRACE_KEYGEN_SEED)
    encryptor = Encryptor(ctx, keygen.public_key(), seed=TRACE_ENCRYPTOR_SEED)
    encoder = CkksEncoder(ctx)
    evaluator = Evaluator(ctx)
    decryptor = Decryptor(ctx, keygen.secret_key)

    pt = encoder.encode(trace_values(ctx.params.slot_count))
    ct = encryptor.encrypt(pt)
    prod = evaluator.multiply(ct, ct)
    relin = evaluator.relinearize(prod, keygen.relin_key())
    rescaled = evaluator.rescale(relin)
    plain = decryptor.decrypt(rescaled)
    decoded = encoder.decode(plain)

    def ct_rows(c):
        return [p.residues for p in c.polys]

    return {
        "params": dict(TRACE_PARAMS),
        "keygen_seed": TRACE_KEYGEN_SEED,
        "encryptor_seed": TRACE_ENCRYPTOR_SEED,
        "digests": {
            "plaintext": rows_digest(pt.poly.residues),
            "ciphertext": rows_digest(ct_rows(ct)),
            "product": rows_digest(ct_rows(prod)),
            "relinearized": rows_digest(ct_rows(relin)),
            "rescaled": rows_digest(ct_rows(rescaled)),
            "decrypted": rows_digest(plain.poly.residues),
        },
        "decoded_head": [
            [v.real, v.imag] for v in decoded[:TRACE_HEAD_SLOTS]
        ],
        "decode_atol": TRACE_DECODE_ATOL,
    }


def blob_digest(blob: bytes) -> dict:
    """Length and SHA-256 of one serialized object."""
    return {"bytes": len(blob), "sha256": hashlib.sha256(blob).hexdigest()}


def compute_wire_v2() -> dict:
    """Digests of seeded wire-v2 blobs (packed on the active backend)."""
    from repro.ckks.context import CkksContext, CkksParameters, toy_parameters
    from repro.ckks.encoder import CkksEncoder
    from repro.ckks.encryptor import Encryptor
    from repro.ckks.keys import KeyGenerator
    from repro.ckks.serialization import (
        VERSION_PACKED,
        serialize_ciphertext,
        serialize_kswitch_key,
        serialize_plaintext,
    )

    def seeded_objects(params):
        ctx = CkksContext(params)
        keygen = KeyGenerator(ctx, seed=WIRE_KEYGEN_SEED)
        seeded = KeyGenerator(
            ctx, seed=WIRE_KEYGEN_SEED, expansion_seed=WIRE_EXPANSION_SEED
        )
        encryptor = Encryptor(
            ctx, keygen.public_key(), seed=WIRE_ENCRYPTOR_SEED
        )
        pt = CkksEncoder(ctx).encode(trace_values(params.slot_count))
        return pt, encryptor.encrypt(pt), keygen.relin_key(), seeded.relin_key()

    out = {}
    bases = (
        ("n1024_30bit", toy_parameters(**TRACE_PARAMS)),
        (
            "n8_setA_widths",
            CkksParameters(
                allow_insecure=True, name="wire-mixed", **WIRE_MIXED_PARAMS
            ),
        ),
    )
    for label, params in bases:
        pt, ct, relin, relin_seeded = seeded_objects(params)
        out[label] = {
            "plaintext": blob_digest(serialize_plaintext(pt, VERSION_PACKED)),
            "ciphertext": blob_digest(serialize_ciphertext(ct, VERSION_PACKED)),
            "relin_key": blob_digest(
                serialize_kswitch_key(relin, VERSION_PACKED)
            ),
            "relin_key_seeded": blob_digest(
                serialize_kswitch_key(relin_seeded, VERSION_PACKED)
            ),
        }
    return out


def main() -> None:
    from repro.ckks.backend import use_backend

    with use_backend("reference"):
        ntt = compute_ntt_vectors()
        trace = compute_trace()
        wire = compute_wire_v2()
    (VECTORS_DIR / "ntt_n64.json").write_text(json.dumps(ntt, indent=1) + "\n")
    (VECTORS_DIR / "trace_n1024.json").write_text(
        json.dumps(trace, indent=1) + "\n"
    )
    (VECTORS_DIR / "wire_v2.json").write_text(json.dumps(wire, indent=1) + "\n")
    print(f"wrote {VECTORS_DIR / 'ntt_n64.json'}")
    print(f"wrote {VECTORS_DIR / 'trace_n1024.json'}")
    print(f"wrote {VECTORS_DIR / 'wire_v2.json'}")


if __name__ == "__main__":
    main()
