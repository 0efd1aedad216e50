"""The one name registry behind every axis, and the names it now checks early."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import CacheConfig, OptimizationConfig, RemoteConfig, Session, get_strategy
from repro.pool import SessionPool, get_scheduler
from repro.remote import RemoteApp
from repro.utils.registry import Registry

_TAGS = ("gemm", "llm", "smoke")
_KEYS = st.text(alphabet="abXY-_0", min_size=1, max_size=5)

_FAST = OptimizationConfig(
    strategy="greedy", scale="test", search_budget=4, episode_length=4,
    autotune=False, verify=False,
)
_NO_CACHE = CacheConfig(enabled=False)


@dataclass(frozen=True)
class _Thing:
    name: str
    tags: tuple[str, ...] = ()


@st.composite
def _entries(draw) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """(name, aliases, tags) triples whose names and aliases never collide."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=10, unique_by=str.lower))
    cuts = sorted(draw(st.sets(st.integers(1, len(keys) - 1)))) if len(keys) > 1 else []
    groups = [keys[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(keys)])]
    return [
        (group[0], tuple(group[1:]), tuple(sorted(draw(st.sets(st.sampled_from(_TAGS))))))
        for group in groups
    ]


def _case_variants(key: str) -> list[str]:
    return [key, key.upper(), key.lower(), key.swapcase()]


@settings(max_examples=60, deadline=None)
@given(entries=_entries(), data=st.data())
def test_registry_lookup_enumeration_and_conflicts(entries, data):
    registry: Registry[_Thing] = Registry("thing")
    for name, aliases, tags in entries:
        assert registry.add(name, _Thing(name, tags), aliases=aliases) == _Thing(name, tags)
    names = registry.names()
    assert names == tuple(sorted(name for name, _, _ in entries))
    assert registry.values() == tuple(registry.get(name) for name in names)

    # Every name and alias resolves, in any case, to its entry.
    for name, aliases, tags in entries:
        for key in (name, *aliases):
            variant = data.draw(st.sampled_from(_case_variants(key)))
            assert variant in registry
            assert registry.get(variant) == _Thing(name, tags)

    # An unknown name lists what is available ("?" is outside the key alphabet).
    unknown = "?" + data.draw(_KEYS)
    assert unknown not in registry
    with pytest.raises(KeyError) as excinfo:
        registry.get(unknown)
    assert excinfo.value.args[0] == f"unknown thing {unknown!r}; available: {list(names)}"

    # A tag filter keeps the entries that carry every given tag.
    wanted = data.draw(st.sets(st.sampled_from(_TAGS)))
    assert registry.names(tags=wanted) == tuple(
        name for name, _, tags in sorted(entries) if wanted <= set(tags)
    )

    # Adding a name again replaces its value, under its aliases too.
    name, aliases, _ = data.draw(st.sampled_from(entries))
    replacement = _Thing(name, ("replaced",))
    registry.add(name, replacement)
    assert all(registry.get(key) == replacement for key in (name, *aliases))
    assert registry.names() == names

    # A name or alias that already resolves to another entry is refused.
    if len(entries) > 1:
        (name, _, _), (other, other_aliases, _) = data.draw(st.permutations(entries))[:2]
        taken = [
            variant
            for key in (other, *other_aliases)
            for variant in _case_variants(key)
            if variant != other
        ]
        before = registry.get(name)
        clash = data.draw(st.sampled_from([other, *taken]))
        with pytest.raises(ValueError, match="already resolves to"):
            registry.add(name, _Thing("clash"), aliases=(clash,))
        if taken:
            with pytest.raises(ValueError, match="already resolves to"):
                registry.add(data.draw(st.sampled_from(taken)), _Thing("clash"))
        assert registry.get(name) == before
        assert registry.names() == names


def test_strategy_and_scheduler_lookup_ignores_case():
    assert get_strategy("GREEDY").name == "greedy"
    assert get_scheduler("Round_Robin").name == "round_robin"


def _session(config: OptimizationConfig) -> Session:
    return Session(config=config, cache=_NO_CACHE)


def _pool(config: OptimizationConfig) -> SessionPool:
    return SessionPool(["A100-sim"], config=config, cache=_NO_CACHE)


@pytest.mark.parametrize("build", [_session, _pool], ids=["Session", "SessionPool"])
def test_unknown_strategy_or_scale_fails_at_construction(build):
    with pytest.raises(KeyError, match=r"unknown strategy 'gredy'; available: \[.*'greedy'"):
        build(_FAST.replace(strategy="gredy"))
    with pytest.raises(
        ValueError, match=r"unknown scale 'tset'; expected one of \('test', 'bench', 'paper'\)"
    ):
        build(_FAST.replace(scale="tset"))


def test_unknown_strategy_is_refused_at_submit():
    with _pool(_FAST) as pool:
        queue = pool.serve()
        with pytest.raises(KeyError, match="unknown strategy 'gredy'"):
            queue.submit("softmax", strategy="gredy")
        assert queue.jobs() == []


def test_remote_submit_refuses_names_that_are_not_strings():
    with _pool(_FAST) as pool, RemoteApp(pool, remote=RemoteConfig(journal=False)) as app:
        for field in ("backend", "strategy"):
            with pytest.raises(ValueError, match=field):
                app.submit({"kernel": "softmax", field: 5})
        assert app.queue.jobs() == []


def test_strategy_is_reported_by_its_canonical_name():
    with _session(_FAST) as session:
        report = session.optimize("softmax", strategy="GREEDY", store=False)
    assert not report.failed
    assert report.strategy == "greedy"
