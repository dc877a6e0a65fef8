"""The commit-protocol zoo: pluggable site<->central interactions.

The paper evaluates its load-sharing strategies on top of exactly one
site<->central interaction -- asynchronous update propagation with
optimistic authentication (section 2).  This package turns that
interaction into hook objects the stock sites call (a
:class:`CommitProtocol` names its :class:`LocalHooks` and
:class:`CentralHooks`), so competing protocols can run under the same
workloads, fault plans, routing strategies and figures:

``optimistic``
    The paper's protocol, extracted unchanged (the default).  Local
    commits are asynchronous; central commits authenticate against the
    masters.
``2pc``
    Primary-copy two-phase commit.  Updating local transactions block
    on a prepare/vote round with the central site (the primary-copy
    coordinator) before committing; coordinator failure leaves them
    blocked until a standby takes over.
``epoch``
    Deterministic epoch-batched group commit.  Execution stays
    optimistic, but update batches ship once per epoch and are applied
    at the central in deterministic ``(site, seq)`` order; central
    commits wait for the epoch boundary.

Registration is decoupled from import: :func:`protocol_names` answers
config validation without importing the built-in implementation
modules, which load lazily on the first :func:`get_protocol` call.
Third-party protocols register with the :func:`register` decorator;
once registered their names validate everywhere a built-in name does
(``SystemConfig.protocol``, the CLI ``--protocol`` flag, cache keys,
golden scenarios).
"""

from __future__ import annotations

from .base import CentralHooks, CommitProtocol, LocalHooks

__all__ = ["CommitProtocol", "LocalHooks", "CentralHooks", "get_protocol",
           "protocol_names", "register"]

#: Built-in protocols, importable lazily (module name per protocol).
_BUILTINS = {
    "optimistic": "optimistic",
    "2pc": "twophase",
    "epoch": "epoch",
}

_REGISTRY: dict[str, type[CommitProtocol]] = {}


def register(cls: type[CommitProtocol]) -> type[CommitProtocol]:
    """Class decorator adding a protocol to the registry by its name."""
    name = cls.name
    if not isinstance(name, str) or not name:
        raise ValueError(
            f"protocol class {cls.__name__} must define a non-empty "
            f"``name``")
    _REGISTRY[name] = cls
    return cls


def protocol_names() -> tuple[str, ...]:
    """Every registered protocol name (built-ins first, stable order)."""
    names = dict.fromkeys(_BUILTINS)
    names.update(dict.fromkeys(_REGISTRY))
    return tuple(names)


def get_protocol(name: str) -> CommitProtocol:
    """Resolve a protocol name to a fresh protocol instance.

    Raises a clean :class:`ValueError` naming the registered protocols
    for unknown names -- the error surfaced by both
    ``SystemConfig.validate()`` and the CLI ``--protocol`` flag.
    """
    if name not in _REGISTRY and name in _BUILTINS:
        import importlib

        importlib.import_module(f".{_BUILTINS[name]}", __package__)
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown commit protocol {name!r}; registered protocols: "
            f"{', '.join(protocol_names())}")
    return cls()
