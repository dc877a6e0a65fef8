"""The commit-protocol registry, its config/CLI plumbing and cache keys.

Property-tested round trips (name -> protocol -> config -> name), clean
rejection of unknown names at every entry point (registry, SystemConfig,
CLI), third-party registration through the hook seam, and the guarantee
that two protocols can never share an on-disk result-cache entry.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import ResultCache
from repro.experiments.cli import main as experiment_main
from repro.experiments.runner import RunSettings
from repro.core import STRATEGIES
from repro.hybrid import HybridSystem, SystemConfig, get_protocol, \
    paper_config, protocol_names
from repro.hybrid.protocols import _REGISTRY, LocalHooks, register
from repro.hybrid.protocols.epoch import EpochProtocol
from repro.hybrid.protocols.optimistic import OptimisticProtocol
from repro.hybrid.protocols.twophase import TwoPhaseProtocol

BUILTINS = ("optimistic", "2pc", "epoch")


# ---------------------------------------------------------------------------
# Registry round trips
# ---------------------------------------------------------------------------


def test_builtins_are_registered():
    assert tuple(protocol_names())[:3] == BUILTINS


@given(name=st.sampled_from(BUILTINS))
@settings(max_examples=20, deadline=None)
def test_name_protocol_config_round_trip(name):
    """name -> class -> instance -> config -> name survives the loop."""
    protocol = get_protocol(name)
    assert protocol.name == name
    config = paper_config(protocol=name)
    assert config.protocol == name
    config.validate()  # still valid after the round trip
    rebuilt = dataclasses.replace(config)
    assert get_protocol(rebuilt.protocol).name == name


def test_get_protocol_returns_fresh_instances():
    """Each lookup builds a new protocol object (no shared state)."""
    assert get_protocol("2pc") is not get_protocol("2pc")
    assert isinstance(get_protocol("optimistic"), OptimisticProtocol)
    assert isinstance(get_protocol("2pc"), TwoPhaseProtocol)
    assert isinstance(get_protocol("epoch"), EpochProtocol)


def test_third_party_registration():
    """The documented extension path: subclass, @register, use by name."""

    class NullProtocol(OptimisticProtocol):
        name = "test-null"

    try:
        register(NullProtocol)
        assert "test-null" in protocol_names()
        assert isinstance(get_protocol("test-null"), NullProtocol)
        config = paper_config(protocol="test-null")  # validates
        assert config.protocol == "test-null"
    finally:
        _REGISTRY.pop("test-null", None)
    assert "test-null" not in protocol_names()


class CountingHooks(LocalHooks):
    """Counts the commits it sees and delegates to the default."""

    def commit(self, txn):
        self.site.system.commit_calls += 1
        return (yield from super().commit(txn))


def test_overridden_hook_runs_and_delegates():
    """A protocol that overrides one local hook: the stock sites call
    it, and delegating to the default keeps the optimistic sample path."""

    class CountingProtocol(OptimisticProtocol):
        name = "test-counting"
        local_hooks = CountingHooks

    def simulate(protocol):
        config = paper_config(total_rate=18.0, warmup_time=2.0,
                              measure_time=10.0, seed=5, protocol=protocol)
        system = HybridSystem(config, STRATEGIES["queue-length"](config))
        system.commit_calls = 0
        result = system.run()
        return system, result

    register(CountingProtocol)
    try:
        system, counted = simulate("test-counting")
    finally:
        _REGISTRY.pop("test-counting", None)
    _, stock = simulate("optimistic")
    assert all(isinstance(site.hooks, CountingHooks)
               for site in system.sites)
    assert system.commit_calls > 0
    identity = counted.identity_dict()
    identity.pop("protocol")
    reference = stock.identity_dict()
    reference.pop("protocol")
    assert identity == reference


# ---------------------------------------------------------------------------
# Unknown names fail fast at every entry point
# ---------------------------------------------------------------------------


@given(name=st.text(min_size=1, max_size=20).filter(
    lambda s: s not in set(protocol_names())))
@settings(max_examples=30, deadline=None)
def test_unknown_protocol_raises_value_error(name):
    with pytest.raises(ValueError, match="unknown commit protocol"):
        get_protocol(name)
    with pytest.raises(ValueError, match="unknown commit protocol"):
        paper_config(protocol=name)


def test_config_error_names_the_alternatives():
    with pytest.raises(ValueError) as excinfo:
        SystemConfig(protocol="three-phase")
    message = str(excinfo.value)
    for name in BUILTINS:
        assert name in message


def test_nonpositive_epoch_interval_rejected():
    with pytest.raises(ValueError, match="epoch_interval"):
        paper_config(epoch_interval=0.0)


def test_cli_rejects_unknown_protocol(capsys):
    code = experiment_main(["--figure", "4.1", "--protocol", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown --protocol 'bogus'" in err
    assert "optimistic" in err


def test_cli_lists_protocols(capsys):
    assert experiment_main(["--list-protocols"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        assert name in out


# ---------------------------------------------------------------------------
# RunSettings threading and cache-key separation
# ---------------------------------------------------------------------------


def test_run_settings_thread_protocol_into_configs():
    settings = RunSettings(protocol="epoch")
    config = settings.config_for(20.0, 0.2)
    assert config.protocol == "epoch"
    # An explicit override still wins over the settings default.
    forced = settings.config_for(20.0, 0.2, protocol="2pc")
    assert forced.protocol == "2pc"


def test_cache_keys_never_collide_across_protocols():
    """One workload, every protocol: all distinct cache keys -- a 2PC
    result can never be served from the optimistic cache (or vice
    versa)."""
    keys = set()
    for name in protocol_names():
        config = paper_config(total_rate=20.0, protocol=name)
        keys.add(ResultCache.key_for(config, "queue-length"))
    assert len(keys) == len(protocol_names())


def test_epoch_interval_is_cache_significant():
    base = paper_config(total_rate=20.0, protocol="epoch")
    tweaked = paper_config(total_rate=20.0, protocol="epoch",
                           epoch_interval=0.5)
    assert (ResultCache.key_for(base, "queue-length") !=
            ResultCache.key_for(tweaked, "queue-length"))
