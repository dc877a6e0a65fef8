"""Pinned simulated outputs of short runs, one per commit protocol.

The goldens under ``tests/golden`` cover no-fault runs only.  These
digests extend the bit-identity contract to the hot path under every
registered protocol and to a faulted run (``central-outage-failover``
under ``2pc``): the reliable channel, its retransmit timers, the fault
injector and the hot standby.  A performance change to the kernel, the
lock manager or the network must leave every digest unchanged.

Each digest is the SHA-256 of the flattened
``identity_dict(include_profile=False)``, so kernel event counts are not
part of it and an optimisation that saves events keeps it.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import RunSettings, run_single
from repro.sim.faults import resolve_fault_plan
from repro.verify.compare import flatten

STRATEGY = "min-average-population"
RATE = 30.0
DELAY = 0.2
SEED = 4242

#: ``(protocol, fault plan or None, horizon scale) -> digest``.  The two
#: 2pc digests were regenerated when the masters' in-doubt check moved
#: to the instant of the authentication grant (2pc sample paths changed;
#: see tests/test_twophase_checker.py).
PINNED = {
    ("optimistic", None, 0.1):
        "ea3de6cf461a1a9c6dca24be0f308abff5177f31ae809d159f9425bc0fe0a987",
    ("2pc", None, 0.1):
        "a97d93564b5ba0d5f7c84f44f4947061e21b70d26761d5c499a6e709fc7d7c24",
    ("epoch", None, 0.1):
        "3a57b6522e96a9e44cd57037359e516ca8d5594e3be7ad488cfc940874154976",
    ("2pc", "central-outage-failover", 0.3):
        "ed2d865314e8d87084f3892a7923199415dec8b879599d43a7db5ef8c0a0973e",
}


def identity_digest(result) -> str:
    flat = flatten(result.identity_dict(include_profile=False))
    text = "\n".join(f"{key}={flat[key]!r}" for key in sorted(flat))
    return hashlib.sha256(text.encode()).hexdigest()


def simulate(protocol: str, plan_name: str | None, scale: float):
    settings = RunSettings(scale=scale, base_seed=SEED, protocol=protocol)
    plan = None
    if plan_name is not None:
        plan = resolve_fault_plan(plan_name,
                                  settings.warmup_time * settings.scale,
                                  settings.measure_time * settings.scale)
    return run_single(STRATEGY, RATE, DELAY, settings=settings,
                      fault_plan=plan)


@pytest.mark.parametrize("key", list(PINNED),
                         ids=[f"{p}-{f or 'no-fault'}" for p, f, _ in PINNED])
def test_simulated_outputs_are_pinned(key):
    protocol, plan_name, scale = key
    result = simulate(protocol, plan_name, scale)
    assert result.completed > 0
    assert identity_digest(result) == PINNED[key]
