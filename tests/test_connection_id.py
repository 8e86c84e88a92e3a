"""ConnectionId unit tests, including the randbytes seed-compatibility note.

Seed-compatibility note
-----------------------
``ConnectionId.generate`` draws its bytes with one ``rng.randbytes(n)``
call.  CPython implements ``randbytes(n)`` as a single
``getrandbits(8 * n)`` draw, whereas the previous per-byte loop made
``n`` separate ``getrandbits(8)`` draws.  Both consume the Mersenne
Twister stream, but *differently*: for the same seeded ``Random``
instance the generated CID values — and every draw made from that
instance afterwards — differ from builds that used the per-byte loop.
Golden artifacts regenerated after this change are therefore expected
to differ from pre-change golden artifacts at the same seed; within any
one build, runs remain byte-for-byte deterministic, which is the
property the tests below pin.
"""

import random

import pytest

from repro.quic.connection_id import ConnectionId


def test_generate_is_deterministic_per_seed():
    a = ConnectionId.generate(random.Random(42), 8)
    b = ConnectionId.generate(random.Random(42), 8)
    assert a == b
    assert len(a) == 8


def test_generate_matches_single_randbytes_draw():
    # Pins the stream-consumption contract from the docstring: exactly
    # one randbytes(n) draw, nothing else consumed.
    rng = random.Random(7)
    expected = random.Random(7).randbytes(12)
    cid = ConnectionId.generate(rng, 12)
    assert cid.value == expected
    # The generator advanced by exactly that one draw.
    follow = random.Random(7)
    follow.randbytes(12)
    assert rng.random() == follow.random()


def test_generate_distinct_draws_differ():
    rng = random.Random(0)
    assert ConnectionId.generate(rng) != ConnectionId.generate(rng)


def test_generate_zero_length():
    cid = ConnectionId.generate(random.Random(1), 0)
    assert len(cid) == 0
    assert cid.hex == ""


@pytest.mark.parametrize("length", (-1, 21))
def test_generate_rejects_bad_lengths(length):
    with pytest.raises(ValueError):
        ConnectionId.generate(random.Random(0), length)


def test_too_long_value_rejected():
    with pytest.raises(ValueError):
        ConnectionId(b"\x00" * 21)


def test_bytes_len_hex_roundtrip():
    cid = ConnectionId(b"\xde\xad\xbe\xef")
    assert bytes(cid) == b"\xde\xad\xbe\xef"
    assert len(cid) == 4
    assert cid.hex == "deadbeef"
