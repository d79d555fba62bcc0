"""The request record every workload builds."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Request:
    """One closed-loop request.

    ``run(span)`` makes the library calls, each inside ``span(name)``, and
    returns what the check needs.  ``check(output)`` compares that output
    with a reference answer and returns an error message or None.
    ``counts(output)`` gives exact work counters read off the output.
    ``tags`` carries facts known from construction (degree, regularity).
    """

    name: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], str | None]
    counts: Callable[[Any], dict] = lambda out: {}
    tags: dict = field(default_factory=dict)
