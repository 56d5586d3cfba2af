"""Directory-based MESI coherence substrate with LW-ID tracking."""

from repro.coherence.directory import DirEntry, Directory, EXCL, SHARED, UNCACHED
from repro.coherence.protocol import CoherenceEngine, DependenceTracker
from repro.coherence.core import CompiledEngine

__all__ = [
    "Directory",
    "DirEntry",
    "CoherenceEngine",
    "CompiledEngine",
    "DependenceTracker",
    "UNCACHED",
    "SHARED",
    "EXCL",
]
