"""Property tests for the result-cache key: order-insensitive over dict
contents, injective over distinct inputs, and stable across processes
(``repr`` of a set depends on ``PYTHONHASHSEED``; the canonical encoding
must not)."""

import subprocess
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.core.cache import cache_key
from repro.core.keys import canonical

CFG = SimConfig.tiny()

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False),
    st.text(max_size=20),
)
keys = st.one_of(
    st.integers(min_value=-100, max_value=100),
    st.text(max_size=10),
    st.booleans(),
)
# nested app_params values: scalars, lists, sets, and dicts of them
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
        st.sets(
            st.one_of(
                st.integers(min_value=-100, max_value=100),
                st.text(max_size=10),
            ),
            max_size=4,
        ),
    ),
    max_leaves=12,
)
param_dicts = st.dictionaries(keys, values, max_size=5)


def _key(params):
    return cache_key(CFG, "sor", "nwcache", "optimal", app_params=params)


@given(params=param_dicts, seed=st.randoms())
@settings(max_examples=100, deadline=None)
def test_key_is_insensitive_to_dict_order(params, seed):
    items = list(params.items())
    seed.shuffle(items)
    assert _key(dict(items)) == _key(params)


@given(params=param_dicts)
@settings(max_examples=100, deadline=None)
def test_canonical_is_deterministic_and_key_repeatable(params):
    assert canonical(params) == canonical(params)
    assert _key(params) == _key(params)


# For the injectivity property, avoid values Python considers equal
# across types (1 == 1.0 == True, 0.0 == -0.0) but the digest rightly
# distinguishes -- ``!=`` would not match key inequality for those.
_distinct_scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000), st.text(max_size=10)
)
_distinct_values = st.recursive(
    _distinct_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
        st.sets(_distinct_scalars, max_size=4),
    ),
    max_leaves=10,
)
_distinct_dicts = st.dictionaries(st.text(max_size=8), _distinct_values,
                                  max_size=5)


@given(a=_distinct_dicts, b=_distinct_dicts)
@settings(max_examples=100, deadline=None)
def test_distinct_params_get_distinct_keys(a, b):
    if a != b:
        assert _key(a) != _key(b)
    else:
        assert _key(a) == _key(b)


def test_mixed_type_dict_keys_do_not_crash_or_collide():
    """``sorted({1: .., 'b': ..}.items())`` raises TypeError; the key
    must handle mixed-type keys and keep ``1`` distinct from ``"1"``."""
    assert _key({1: "a", "b": 2}) == _key({"b": 2, 1: "a"})
    assert _key({1: "x"}) != _key({"1": "x"})
    assert _key({True: "x"}) != _key({1: "x"})


def test_set_params_are_order_insensitive():
    assert _key({"nodes": {1, 2, 3}}) == _key({"nodes": {3, 1, 2}})
    assert _key({"nodes": frozenset({1, 2})}) == _key({"nodes": {2, 1}})
    assert _key({"nodes": {1, 2}}) != _key({"nodes": {1, 3}})


_SUBPROCESS_SNIPPET = """\
from repro.config import SimConfig
from repro.core.cache import cache_key
params = {
    "mixed": {1: "a", "b": 2, True: 3.5},
    "tags": {"beta", "alpha", "gamma"},
    "ids": frozenset(range(20)),
    "nested": [{"z": 1, "a": [2.5, {"s", "t"}]}],
}
print(cache_key(SimConfig.tiny(), "sor", "nwcache", "optimal",
                app_params=params))
"""


def _key_in_subprocess(hashseed: str) -> str:
    out = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed, "PATH": ""},
        cwd=None,
    )
    return out.stdout.strip()


def test_key_is_stable_across_hash_seeds():
    """Set/dict iteration order varies with PYTHONHASHSEED; digests must
    not (this is what makes the on-disk cache shareable across runs)."""
    digests = {_key_in_subprocess(seed) for seed in ("0", "1", "42")}
    assert len(digests) == 1
    # and the in-process digest agrees with the subprocess ones
    assert _key_in_subprocess("0") == _key_in_subprocess("1")


# --------------------------------------------------- open-loop app params
_OPENLOOP_PARAMS = st.fixed_dictionaries(
    {},
    optional={
        "rate": st.floats(min_value=1.0, max_value=1000.0,
                          allow_nan=False, allow_infinity=False),
        "alpha": st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        "catalog_pages": st.integers(min_value=16, max_value=65536),
        "warmup": st.integers(min_value=0, max_value=10_000),
        "requests": st.integers(min_value=1, max_value=100_000),
        "node_skew": st.floats(min_value=0.0, max_value=2.0,
                               allow_nan=False),
        "write_fraction": st.floats(min_value=0.0, max_value=1.0,
                                    allow_nan=False),
    },
)


@given(params=_OPENLOOP_PARAMS, seed=st.randoms())
@settings(max_examples=100, deadline=None)
def test_openloop_param_keys_are_order_stable(params, seed):
    """Open-loop knob dicts key identically regardless of insertion
    order, and distinct knob values never collide — the property batch
    sweeps over zipf/ycsb cells rely on."""
    items = list(params.items())
    seed.shuffle(items)
    shuffled = dict(items)
    key = cache_key(CFG, "zipf", "nwcache", "optimal", app_params=params)
    assert key == cache_key(CFG, "zipf", "nwcache", "optimal",
                            app_params=shuffled)
    if params.get("rate") != 999.0:
        bumped = dict(params, rate=999.0)
        assert key != cache_key(CFG, "zipf", "nwcache", "optimal",
                                app_params=bumped)
