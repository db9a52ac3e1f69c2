"""Hypothesis cross-backend parity fuzz: same bytes, same trace events.

Every property here computes one primitive twice — once under the
``reference`` backend, once under ``accelerated`` — over random keys,
lengths and chunkings, and asserts that **both** the output bytes and
the recorded :mod:`repro.trace` event counts are identical.  This is the
contract that makes backend selection invisible to hardware pricing,
energy accounting and every golden fleet digest.

SHA-2 streaming is fuzzed with random ``update()`` split points and
``copy()`` forks because the accelerated backend counts compressed
blocks analytically per call boundary — exactly the places where an
off-by-one in buffered-byte accounting would hide.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import trace
from repro.backend import use_backend
from repro.primitives import (
    Hmac,
    HmacDrbg,
    cbc_decrypt,
    cbc_encrypt,
    cmac,
    ctr_crypt,
    ecb_decrypt,
    ecb_encrypt,
    hkdf,
    hmac,
    new_hash,
    x963_kdf,
)
from repro.primitives.drbg import rfc6979_nonce

BACKENDS = ("reference", "accelerated")
HASH_NAMES = ("sha224", "sha256", "sha384", "sha512")

aes_keys = st.binary(min_size=16, max_size=16) | st.binary(
    min_size=24, max_size=24
) | st.binary(min_size=32, max_size=32)
messages = st.binary(min_size=0, max_size=400)
hash_names = st.sampled_from(HASH_NAMES)


def run_on(backend: str, fn):
    """Run ``fn`` under ``backend`` inside a fresh trace scope."""
    with use_backend(backend):
        with trace.trace(backend) as t:
            out = fn()
    return out, t.as_dict()


def assert_parity(fn):
    """``fn``'s bytes and trace counts must not depend on the backend."""
    (ref_out, ref_trace) = run_on("reference", fn)
    (acc_out, acc_trace) = run_on("accelerated", fn)
    assert ref_out == acc_out
    assert ref_trace == acc_trace
    return ref_out


class TestSha2Parity:
    @settings(max_examples=40, deadline=None)
    @given(name=hash_names, message=st.binary(max_size=700))
    def test_one_shot_digest(self, name, message):
        from repro.primitives import sha224, sha256, sha384, sha512

        one_shot = {"sha224": sha224, "sha256": sha256,
                    "sha384": sha384, "sha512": sha512}[name]
        assert_parity(lambda: one_shot(message))

    @settings(max_examples=40, deadline=None)
    @given(
        name=hash_names,
        chunks=st.lists(st.binary(max_size=200), max_size=6),
        fork_point=st.integers(min_value=0, max_value=6),
        tail=st.binary(max_size=70),
    )
    def test_streaming_with_splits_copies_and_redigests(
        self, name, chunks, fork_point, tail
    ):
        def scenario():
            h = new_hash(name)
            fork = None
            for index, chunk in enumerate(chunks):
                if index == fork_point:
                    fork = h.copy()
                h.update(chunk)
            first = h.digest()  # digest() must be repeatable ...
            second = h.digest()  # ... and emit final blocks both times
            forked = b""
            if fork is not None:
                forked = fork.update(tail).digest()
            return first + second + forked + h.hexdigest().encode()

        assert_parity(scenario)

    @settings(max_examples=20, deadline=None)
    @given(name=hash_names, size=st.integers(min_value=0, max_value=300))
    def test_block_boundary_lengths(self, name, size):
        # Exercise exact block/padding boundaries around the fuzzed size.
        sizes = {size, 55, 56, 63, 64, 111, 112, 127, 128}

        def scenario():
            return b"".join(
                new_hash(name, b"\xa5" * s).digest() for s in sorted(sizes)
            )

        assert_parity(scenario)


class TestMacParity:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=0, max_size=200),
        message=messages,
        name=hash_names,
    )
    def test_hmac_one_shot_including_long_keys(self, key, message, name):
        assert_parity(lambda: hmac(key, message, name))

    @settings(max_examples=25, deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=150),
        chunks=st.lists(st.binary(max_size=120), max_size=5),
        name=hash_names,
    )
    def test_hmac_streaming_matches_one_shot(self, key, chunks, name):
        def scenario():
            mac = Hmac(key, name)
            for chunk in chunks:
                mac.update(chunk)
            streamed = mac.digest()
            assert streamed == hmac(key, b"".join(chunks), name)
            return streamed

        assert_parity(scenario)

    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        message=messages,
        tag_length=st.integers(min_value=1, max_value=16),
    )
    def test_cmac(self, key, message, tag_length):
        assert_parity(lambda: cmac(key, message, tag_length))


class TestKdfParity:
    @settings(max_examples=30, deadline=None)
    @given(
        ikm=st.binary(min_size=1, max_size=80),
        salt=st.binary(max_size=80),
        info=st.binary(max_size=40),
        length=st.integers(min_value=1, max_value=150),
        name=hash_names,
    )
    def test_hkdf(self, ikm, salt, info, length, name):
        assert_parity(lambda: hkdf(ikm, salt, info, length, name))

    @settings(max_examples=30, deadline=None)
    @given(
        secret=st.binary(min_size=1, max_size=66),
        shared=st.binary(max_size=40),
        length=st.integers(min_value=1, max_value=150),
        name=hash_names,
    )
    def test_x963(self, secret, shared, length, name):
        assert_parity(lambda: x963_kdf(secret, shared, length, name))


class TestDrbgParity:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.binary(min_size=1, max_size=48),
        personalization=st.binary(max_size=32),
        additional=st.binary(max_size=32),
        sizes=st.lists(
            st.integers(min_value=0, max_value=120), min_size=1, max_size=4
        ),
        name=hash_names,
    )
    def test_generate_stream_and_scalars(
        self, seed, personalization, additional, sizes, name
    ):
        def scenario():
            drbg = HmacDrbg(seed, personalization, name)
            out = b"".join(drbg.generate(n, additional) for n in sizes)
            drbg.reseed(b"entropy", additional)
            out += drbg.generate(33)
            out += str(drbg.random_scalar(2**255 - 19)).encode()
            return out

        assert_parity(scenario)

    @settings(max_examples=25, deadline=None)
    @given(
        private_key=st.integers(min_value=1, max_value=2**256 - 190),
        message_hash=st.binary(min_size=32, max_size=32),
        extra=st.binary(max_size=16),
        name=hash_names,
    )
    def test_rfc6979_nonces(self, private_key, message_hash, extra, name):
        order = 2**256 - 189

        def scenario():
            nonce = rfc6979_nonce(
                private_key, message_hash, order, name, extra
            )
            assert 1 <= nonce < order
            return str(nonce).encode()

        assert_parity(scenario)


class TestAesParity:
    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        n_blocks=st.integers(min_value=1, max_value=8),
        filler=st.binary(min_size=16, max_size=16),
    )
    def test_ecb_roundtrip(self, key, n_blocks, filler):
        plaintext = (filler * n_blocks)[: 16 * n_blocks]

        def scenario():
            ciphertext = ecb_encrypt(key, plaintext)
            assert ecb_decrypt(key, ciphertext) == plaintext
            return ciphertext

        assert_parity(scenario)

    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        iv=st.binary(min_size=16, max_size=16),
        message=st.binary(max_size=200),
    )
    def test_cbc_roundtrip_with_padding(self, key, iv, message):
        def scenario():
            ciphertext = cbc_encrypt(key, iv, message)
            assert cbc_decrypt(key, iv, ciphertext) == message
            return ciphertext

        assert_parity(scenario)

    @settings(max_examples=40, deadline=None)
    @given(
        key=aes_keys,
        nonce=st.binary(min_size=16, max_size=16),
        message=st.binary(max_size=200),
    )
    def test_ctr_roundtrip(self, key, nonce, message):
        def scenario():
            ciphertext = ctr_crypt(key, nonce, message)
            assert ctr_crypt(key, nonce, ciphertext) == message
            return ciphertext

        assert_parity(scenario)

    @settings(max_examples=10, deadline=None)
    @given(key=aes_keys, message=st.binary(max_size=80))
    def test_ctr_counter_wraparound(self, key, message):
        # A nonce at the very top of the counter space must wrap mod
        # 2^128 identically in pure Python and OpenSSL.
        nonce = b"\xff" * 16
        assert_parity(lambda: ctr_crypt(key, nonce, message))

    @settings(max_examples=25, deadline=None)
    @given(key=aes_keys, block=st.binary(min_size=16, max_size=16))
    def test_single_block_primitives(self, key, block):
        from repro.backend import get_backend

        def scenario():
            cipher = get_backend().create_cipher(key)
            ciphertext = cipher.encrypt_block(block)
            assert cipher.decrypt_block(ciphertext) == block
            return ciphertext

        assert_parity(scenario)


# -- elliptic-curve parity ---------------------------------------------------
#
# The EC seam promises the same contract as the primitives: identical
# point bytes AND identical ec.mul_* trace counts under both backends.
# Edge scalars straddle every special case of the accelerated paths —
# k == 1 / k == n-1 short-circuits, the k+1 ECDH companion scalar of the
# Okeya-Sakurai y-recovery, and the k % n == 0 degeneracy the *callers*
# must collapse before any backend sees it.

import dataclasses  # noqa: E402
import random  # noqa: E402

import pytest  # noqa: E402  (section-local: the EC tests parametrize)

from repro.ec import (  # noqa: E402
    CURVES,
    SECP256R1,
    Point,
    encode_point,
    mul_base,
    mul_double,
    mul_double_check,
    mul_point,
)
from repro.ecdsa import Signature, sign, verify, verify_batch  # noqa: E402


def _edge_scalars(curve):
    n = curve.n
    return [1, 2, n - 2, n - 1, n, n + 1]


def assert_ordered_parity(fn):
    """:func:`assert_parity` plus the events' first-seen order.

    The cost model sums a trace's events in first-seen order, so a
    backend that recorded the same counts in another order would still
    change priced floats.
    """
    (ref_out, ref_events), (acc_out, acc_events) = (
        _ordered_run(backend, fn) for backend in BACKENDS
    )
    assert ref_out == acc_out
    assert ref_events == acc_events
    return ref_out


def _ordered_run(backend: str, fn):
    with use_backend(backend):
        with trace.trace(backend) as t:
            out = fn()
    return out, list(t.counts.items())


#: Every registry curve, plus a copy of secp256r1 under a name OpenSSL
#: does not serve, whose checks take the default path on both backends.
_CHECK_CURVES = [CURVES[name] for name in sorted(CURVES)] + [
    dataclasses.replace(SECP256R1, name="not-a-registry-curve")
]


class TestEcParity:
    @pytest.mark.parametrize("curve_name", sorted(CURVES))
    def test_edge_scalars_mul_base_and_mul(self, curve_name):
        curve = CURVES[curve_name]
        g = curve.generator

        def scenario():
            out = b""
            for k in _edge_scalars(curve):
                out += encode_point(mul_base(k, curve))
                out += encode_point(mul_point(k, g))
            return out

        assert_parity(scenario)

    @pytest.mark.parametrize("curve_name", sorted(CURVES))
    def test_edge_scalars_on_arbitrary_point(self, curve_name):
        # Arbitrary (non-generator) points take the ECDH + y-recovery
        # path under OpenSSL rather than the derive_private_key one.
        curve = CURVES[curve_name]

        def scenario():
            q = mul_base(0xB0A710AD % curve.n, curve)
            out = b""
            for k in _edge_scalars(curve):
                out += encode_point(mul_point(k, q), compressed=False)
                out += encode_point(mul_double(k, curve.generator, k, q))
            return out

        assert_parity(scenario)

    @settings(max_examples=8, deadline=None)
    @given(
        curve_name=st.sampled_from(sorted(CURVES)),
        seed=st.integers(min_value=1, max_value=2**64),
    )
    def test_random_scalars_fuzz(self, curve_name, seed):
        curve = CURVES[curve_name]
        k = seed * 0x9E3779B97F4A7C15 % curve.n or 1

        def scenario():
            q = mul_point(k, curve.generator)
            return encode_point(q) + encode_point(
                mul_double(k, curve.generator, curve.n - k, q)
            )

        assert_parity(scenario)

    def test_verify_batch_with_edge_private_keys(self):
        curve = CURVES["secp256r1"]
        n = curve.n
        keys = [1, 2, n - 2, n - 1]

        def scenario():
            items = []
            for index, d in enumerate(keys):
                message = b"edge-key %d" % index
                signature = sign(curve, d, message)
                public = mul_base(d, curve)
                assert verify(public, message, signature)
                items.append((public, message, signature))
            # One deliberately corrupted item: parity must hold for the
            # False lane too (it still runs its double multiplication,
            # whose x coordinate misses r).
            bad_sig = Signature(curve, items[0][2].r, (items[0][2].s + 1) % n or 1)
            items.append((items[0][0], items[0][1], bad_sig))
            results = verify_batch(items)
            assert results == [True, True, True, True, False]
            return b"".join(
                sig.to_bytes() for _, _, sig in items
            ) + bytes(results)

        assert_parity(scenario)

    @pytest.mark.parametrize(
        "curve", _CHECK_CURVES, ids=[curve.name for curve in _CHECK_CURVES]
    )
    def test_mul_double_check_edge_terms(self, curve):
        n = curve.n
        rng = random.Random(int.from_bytes(curve.name.encode(), "big"))
        d = rng.randrange(2, n - 1)
        with use_backend("reference"):
            q = mul_base(d, curve)
            terms, expected = [], []
            for u in (0, 1, 2, n - 2, n - 1, rng.randrange(3, n - 2)):
                for v in (1, 2, n - 1, rng.randrange(3, n - 2)):
                    point = mul_double(u, curve.generator, v, q)
                    x = point.x % n
                    for r in (x, x + 1, x - 1):
                        terms.append((u, v, q, r))
                        expected.append(r == x)
            at_infinity = Point.infinity(curve)
            five_g = mul_base(5, curve).x % n
            extra = [
                # An infinite sum: u*G + v*Q = (n - d + d)*G.
                ((n - d, 1, q, 1), False),
                # The default path: v == 0, Q at infinity, r outside
                # [1, n-1] (also when x mod n would match it).
                ((5, 0, q, five_g), True),
                ((5, 7, at_infinity, five_g), True),
                ((5, 0, q, five_g + n), False),
                ((5, 0, q, 0), False),
                ((5, 1, q, n), False),
                # Degenerate terms answer False without a backend call.
                ((0, 0, q, 1), False),
                ((n, 3, at_infinity, 1), False),
            ]
            terms += [term for term, _ in extra]
            expected += [answer for _, answer in extra]

        answers = assert_ordered_parity(lambda: mul_double_check(terms, curve))
        assert answers == expected
        # One term per call, the shape ``verify`` sends.
        singles = assert_ordered_parity(
            lambda: [mul_double_check([term], curve)[0] for term in terms]
        )
        assert singles == expected

    @pytest.mark.parametrize(
        "curve", _CHECK_CURVES, ids=[curve.name for curve in _CHECK_CURVES]
    )
    def test_verify_with_tampered_inputs(self, curve):
        n = curve.n
        with use_backend("reference"):
            d = int.from_bytes(curve.name.encode(), "big") % (n - 1) + 1
            public = mul_base(d, curve)
            other = mul_base(d % (n - 1) + 1, curve)
            message = b"tamper %s" % curve.name.encode()
            signature = sign(curve, d, message)
        bad_r = Signature(curve, signature.r % (n - 1) + 1, signature.s)
        bad_s = Signature(curve, signature.r, signature.s % (n - 1) + 1)
        items = [
            (public, message, signature),
            (public, message, bad_r),
            (public, message, bad_s),
            (public, message + b"!", signature),
            (other, message, signature),
        ]
        expected = [True, False, False, False, False]

        singles = assert_ordered_parity(
            lambda: [verify(key, msg, sig) for key, msg, sig in items]
        )
        batch = assert_ordered_parity(lambda: verify_batch(items))
        assert singles == batch == expected
