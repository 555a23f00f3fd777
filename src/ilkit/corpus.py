"""The bundled model corpus.

A small, fixed family of frame files ships with the package: the chains
and fans that exercise every relation shape at desk scale, plus the
pencil demo pair, under ``src/ilkit/data/`` in the source tree.  Point
``ILKIT_CORPUS`` at a directory of ``.vf`` files to swap in your own
corpus for the scoreboard and the CLI defaults.  Either way a model is
named by its file stem, the corpus lists its files sorted by name, and
``load`` reads the one file it is asked for.  A file or directory that
cannot be read or parsed raises FrameFormatError naming its path.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from .frameio import FrameFormatError, parse_frame_text

CORPUS_ENV = "ILKIT_CORPUS"


def _root():
    override = os.environ.get(CORPUS_ENV)
    return Path(override) if override else resources.files("ilkit") / "data"


def _files(root) -> list:
    """The ``.vf`` files of the corpus directory, sorted by name."""
    try:
        return sorted((p for p in root.iterdir() if p.name.endswith(".vf")),
                      key=lambda p: p.name[:-3])
    except OSError as exc:
        raise FrameFormatError(f"{root}: {exc}") from None


def _read(path):
    """The model in one corpus file."""
    try:
        return parse_frame_text(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FrameFormatError(f"{path}: {exc}") from None


def corpus_models():
    """All corpus models as (name, Model) pairs, sorted by name."""
    return [(p.name[:-3], _read(p)) for p in _files(_root())]


def load(name: str):
    """One corpus model by name (the file stem), read from its file alone."""
    root = _root()
    path = root / f"{name}.vf"
    if Path(name).name != name or not path.is_file():
        _files(root)   # an unreadable directory is reported by its own path
        raise KeyError(f"no corpus model named {name!r}")
    return _read(path)
