"""The result-cache store, as the benchmark's provenance stamp names it.

Every artifact lives in the one flat store of
:class:`~repro.runner.cache.ResultCache`: ``<root>/<kind>/<sha256>.json``.
There is no second layout and no lever to choose one.  This name exists
only for the provenance stamp that ``perfbench/run.py`` writes into
every result.
"""

from __future__ import annotations


def resolve_cache_backend_name(name: str | None = None) -> str:
    """The store every cache uses: ``"directory"``."""
    return "directory"
