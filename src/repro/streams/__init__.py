"""Streaming substrate: sources, poison injection, and the public board."""

from .board import BoardEntry, PublicBoard
from .injection import PoisonInjector
from .source import ArrayStream, GeneratorStream, StreamSource

__all__ = [
    "BoardEntry",
    "PublicBoard",
    "PoisonInjector",
    "StreamSource",
    "ArrayStream",
    "GeneratorStream",
]
