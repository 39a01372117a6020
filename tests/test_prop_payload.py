"""Property: payloads from the one reseeded generator equal fresh ones.

``payload_for`` draws its random half from one module-level generator
that it reseeds on every call, instead of building ``Random(seed)`` per
write.  For any seedling the payload generator can produce (1..65535)
and any size up to 12 KB it must return exactly the expression it
replaced, ``pattern + Random(seed).randbytes(n - n // 2)``.  Sizes are
biased towards lengths that are not a multiple of 8 (``randbytes``
draws 32-bit words and trims the tail) and towards random halves longer
than one Mersenne Twister state (624 words, 2,496 bytes), whose draw
crosses a twist.  Interleaving calls for different seeds must not
change any result: a call's bytes depend on its own seed alone.
"""

from __future__ import annotations

from random import Random

from hypothesis import given, settings, strategies as st

from repro.trace import replay
from repro.trace.replay import payload_for, payload_seed

KB = 1024
#: Bytes in one Mersenne Twister state (624 32-bit words).
MT_STATE_BYTES = 624 * 4


def reference(seed: int, nbytes: int) -> bytes:
    """The payload built with a fresh generator per call."""
    half = nbytes // 2
    unit = bytes((seed + i) & 0xFF for i in range(64))
    pattern = (unit * (half // 64 + 1))[:half]
    return pattern + Random(seed).randbytes(nbytes - half)


seeds = st.integers(1, 0xFFFF)
sizes = st.one_of(
    st.integers(0, 12 * KB),
    # Not a multiple of 8.
    st.builds(lambda q, r: 8 * q + r, st.integers(0, 12 * KB // 8 - 1), st.integers(1, 7)),
    # A random half past one twister state.
    st.integers(2 * MT_STATE_BYTES + 1, 12 * KB),
)


@settings(max_examples=300, deadline=None)
@given(seed=seeds, nbytes=sizes)
def test_payload_equals_fresh_generator(seed, nbytes):
    assert replay._payload(seed, nbytes) == reference(seed, nbytes)


@settings(max_examples=100, deadline=None)
@given(
    path=st.text("abc/", min_size=1, max_size=12).map(lambda p: "/" + p),
    offset=st.integers(0, 1 << 20),
    nbytes=sizes,
)
def test_payload_for_equals_fresh_generator(path, offset, nbytes):
    assert payload_for(path, offset, nbytes) == reference(payload_seed(path, offset), nbytes)


@settings(max_examples=100, deadline=None)
@given(calls=st.lists(st.tuples(seeds, sizes), min_size=2, max_size=8))
def test_interleaving_changes_no_result(calls):
    forward = [replay._payload(seed, nbytes) for seed, nbytes in calls]
    backward = [replay._payload(seed, nbytes) for seed, nbytes in reversed(calls)]
    assert forward == backward[::-1]
    assert forward == [reference(seed, nbytes) for seed, nbytes in calls]
