"""The paper's optimistic-authentication protocol (the default).

This is the protocol the reproduction grew up with: the default hooks
of :mod:`repro.hybrid.protocols.base` *are* its behaviour, so a run
under ``protocol="optimistic"`` is bit-identical to the pre-extraction
simulator (pinned by the golden-trace gate in
``tests/test_protocol_conformance.py``).
"""

from __future__ import annotations

from . import register
from .base import CommitProtocol

__all__ = ["OptimisticProtocol"]


@register
class OptimisticProtocol(CommitProtocol):
    """Asynchronous update propagation + optimistic authentication."""

    name = "optimistic"
