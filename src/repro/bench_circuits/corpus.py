"""Genuine-format ``.bench`` circuit corpus.

The stand-ins in :mod:`repro.bench_circuits.iscas85` are *constructed*
netlists; this module is the seam for circuits that arrive as real
``.bench`` files — the shipped ISCAS'85-profile reconstructions under
``data/`` and any user-supplied netlist registered at runtime.  A
registered circuit is addressable everywhere a stand-in is: scenario
matrix cells, ``AttackRequest`` envelopes, and the CLI all resolve
circuit names through :func:`resolve_circuit`.

Registration invariants
-----------------------

* **Content hash is cache identity.**  Each entry records the
  ``CompiledCircuit.content_hash()`` of its parsed netlist; matrix and
  task caches key on circuit *structure*, so editing a registered file
  changes the hash and every dependent cache entry misses instead of
  serving stale results.  Re-registering the same name with identical
  content is an idempotent no-op; with different content it is an
  error (pick a new name).
* **Corpus names never shadow stand-ins.**  Registering ``c432`` is
  rejected: the stand-in namespace keys existing golden results and
  cache entries.  The shipped files use the ``real_`` prefix
  (``real_c432``, ``real_c499``, ``real_c880``).
* **Loads are fresh.**  :func:`load_corpus` re-parses per call so
  callers can mutate (lock, rename) without poisoning the registry.
* **Resolves are prepared once.**  :func:`resolve_circuit` keeps a
  small per-process LRU of parsed-and-compiled carriers and hands out
  a fresh copy per call that adopts the one shared, immutable
  :class:`~repro.circuit.compiled.CompiledCircuit` — so its
  optimized form is computed once per process.  Corpus entries are
  keyed by the file's current text, so an edited file is parsed again
  and fails the content-hash check exactly like :func:`load_corpus`.
* **Scale does not apply.**  Real netlists are fixed-size artifacts;
  :func:`resolve_circuit` ignores the ``scale`` knob for corpus names
  and only applies it to stand-ins.

::

    >>> sorted(corpus_names())
    ['real_c432', 'real_c499', 'real_c880']
    >>> entry = corpus_entry("real_c432")
    >>> (entry.num_inputs, entry.num_outputs, entry.num_gates)
    (36, 7, 160)
    >>> netlist = load_corpus("real_c432")
    >>> netlist.compile().content_hash() == entry.content_hash
    True
    >>> resolve_circuit("real_c432").num_gates     # corpus: scale ignored
    160
    >>> resolve_circuit("c17").num_gates           # stand-in fallback
    6
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.bench_circuits.iscas85 import ISCAS85_PROFILES, c17, iscas85_like
from repro.circuit.bench import parse_bench
from repro.circuit.compiled import CompiledCircuit
from repro.circuit.netlist import Netlist

_DATA_DIR = Path(__file__).resolve().parent / "data"

#: Stand-in names resolvable next to the corpus (c17 is genuine but
#: embedded, not file-backed).
_STANDIN_NAMES = frozenset(ISCAS85_PROFILES) | {"c17"}

#: Carriers kept by :func:`resolve_circuit`'s per-process memo.
_MEMO_SIZE = 4


@dataclass(frozen=True)
class CorpusEntry:
    """One registered ``.bench`` file and its structural fingerprint."""

    name: str
    path: str
    content_hash: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    source: str

    def profile(self) -> dict[str, int]:
        return {
            "pi": self.num_inputs,
            "po": self.num_outputs,
            "gates": self.num_gates,
        }


_REGISTRY: dict[str, CorpusEntry] = {}


class CorpusError(ValueError):
    """Registration or lookup failure."""


def register_corpus_file(
    path: str | os.PathLike[str],
    name: str | None = None,
    source: str = "user",
) -> CorpusEntry:
    """Parse, fingerprint, and register a ``.bench`` file.

    ``name`` defaults to the file stem.  See the module docstring for
    the naming and re-registration invariants.
    """
    path = Path(path)
    name = name or path.stem
    if name in _STANDIN_NAMES:
        raise CorpusError(
            f"corpus name {name!r} would shadow the {name!r} stand-in; "
            f"register it under a distinct name (e.g. 'real_{name}')"
        )
    text = path.read_text()
    netlist = parse_bench(text, name=name)
    netlist.validate()
    content_hash = netlist.compile().content_hash()
    existing = _REGISTRY.get(name)
    if existing is not None:
        if existing.content_hash == content_hash:
            return existing
        raise CorpusError(
            f"corpus name {name!r} already registered with different "
            f"content (hash {existing.content_hash[:12]} != "
            f"{content_hash[:12]}); pick a new name"
        )
    entry = CorpusEntry(
        name=name,
        path=str(path),
        content_hash=content_hash,
        num_inputs=len(netlist.inputs),
        num_outputs=len(netlist.outputs),
        num_gates=netlist.num_gates,
        source=source,
    )
    _REGISTRY[name] = entry
    return entry


def corpus_names() -> list[str]:
    """Registered corpus circuit names, sorted."""
    return sorted(_REGISTRY)


def corpus_entry(name: str) -> CorpusEntry:
    """Registry record for ``name`` (raises :class:`CorpusError`)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise CorpusError(
            f"unknown corpus circuit {name!r}; registered: {corpus_names()}"
        ) from None


def load_corpus(name: str) -> Netlist:
    """Freshly parsed netlist for a registered corpus circuit.

    Verifies the file still matches its registered content hash, so a
    file edited after registration fails loudly instead of silently
    shipping a different circuit under a cached identity.
    """
    return _parse_checked(name, _read(name))


def _read(name: str) -> str:
    return Path(corpus_entry(name).path).read_text()


def _parse_checked(name: str, text: str) -> Netlist:
    """Parse ``text`` as corpus circuit ``name``, checking its hash."""
    entry = corpus_entry(name)
    netlist = parse_bench(text, name=name)
    if netlist.compile().content_hash() != entry.content_hash:
        raise CorpusError(
            f"corpus file {entry.path!r} changed on disk since "
            f"registration of {name!r}; re-register under a new name"
        )
    return netlist


def known_circuit(name: str) -> bool:
    """True if ``name`` resolves to a corpus entry or a stand-in."""
    return name in _REGISTRY or name in _STANDIN_NAMES


def circuit_names() -> list[str]:
    """Every resolvable circuit name: corpus entries then stand-ins."""
    return corpus_names() + sorted(_STANDIN_NAMES)


def resolve_circuit(name: str, scale: float = 1.0) -> Netlist:
    """Resolve a circuit name: corpus first, stand-ins second.

    Corpus circuits are fixed-size real netlists, so ``scale`` is
    ignored for them (see the module docstring); stand-ins receive it
    unchanged.

    Each carrier is parsed (or generated) and compiled once per
    process: a bounded LRU keeps it under ``(name, file text)`` for
    corpus entries and ``(name, scale)`` for stand-ins.  Every call
    returns a fresh :meth:`~repro.circuit.netlist.Netlist.copy` that
    adopts the shared compiled form, so callers may mutate their copy
    (the compile cache drops the adopted form on structural change)
    while oracles and encoders reuse one cached ``optimized()``.
    """
    if name in _REGISTRY:
        netlist, compiled = _prepared(name, _read(name))
    elif name in _STANDIN_NAMES:
        netlist, compiled = _prepared(name, scale)
    else:
        raise CorpusError(
            f"unknown circuit {name!r}; choose from {circuit_names()}"
        )
    dup = netlist.copy()
    dup.adopt_compiled(compiled)
    return dup


@lru_cache(maxsize=_MEMO_SIZE)
def _prepared(name: str, source: str | float) -> tuple[Netlist, CompiledCircuit]:
    """The memoized carrier: ``source`` is a corpus file's text or a
    stand-in's scale.  Never handed out; :func:`resolve_circuit`
    returns copies."""
    if name == "c17":
        netlist = c17()
    elif name in ISCAS85_PROFILES:
        netlist = iscas85_like(name, source)
    else:
        netlist = _parse_checked(name, source)
    return netlist, netlist.compile()


def _register_builtin() -> None:
    for path in sorted(_DATA_DIR.glob("*.bench")):
        register_corpus_file(
            path, source="builtin reconstruction (see data/README.md)"
        )


_register_builtin()
