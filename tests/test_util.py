import math
import os

from hypothesis import given
from hypothesis import strategies as st

from cyclescreen.util import atomic_write_text, derive_seed, round_half_up, round_sig


def test_derive_seed_deterministic():
    assert derive_seed(7, "cell", "A") == derive_seed(7, "cell", "A")


def test_derive_seed_distinguishes_parts():
    seen = {
        derive_seed(0),
        derive_seed(1),
        derive_seed(0, "a"),
        derive_seed(0, "b"),
        derive_seed(0, "a", "b"),
        derive_seed(0, "ab"),
    }
    assert len(seen) == 6
    # parts are joined with a separator, so int and str forms agree
    assert derive_seed(0, "a") == derive_seed("0", "a")


@given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
def test_derive_seed_range(base, tag):
    seed = derive_seed(base, tag)
    assert 0 <= seed < 2**63


def test_round_half_up_midpoints():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(2.5) == 3
    assert round_half_up(-0.5) == 0
    assert round_half_up(6.0) == 6


def test_round_sig():
    assert round_sig(123456.789, 6) == 123457.0
    assert round_sig(0.000123456789, 6) == 0.000123457
    assert round_sig(0.0) == 0.0
    assert math.isinf(round_sig(float("inf")))
    assert math.isnan(round_sig(float("nan")))


def test_atomic_write_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "c.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    assert not any(
        name.startswith(".") for name in os.listdir(tmp_path / "a" / "b")
    )


def test_atomic_write_gives_the_mode_open_gives(tmp_path):
    plain = tmp_path / "plain.txt"
    plain.write_text("payload")
    target = tmp_path / "atomic.txt"
    atomic_write_text(str(target), "payload")
    assert target.stat().st_mode == plain.stat().st_mode
