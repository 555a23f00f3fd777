"""The bundled model corpus.

A small, fixed family of frame files ships with the package: the chains
and fans that exercise every relation shape at desk scale, plus the
pencil demo pair, under ``src/ilkit/data/`` in the source tree.  Point
``ILKIT_CORPUS`` at a directory of ``.vf`` files to swap in your own
corpus for the scoreboard and the CLI defaults.
"""

from __future__ import annotations

import os
from importlib import resources

from .frameio import FrameFormatError, parse_frame_text

CORPUS_ENV = "ILKIT_CORPUS"


def corpus_entries() -> list[tuple[str, str]]:
    """(name, file text) pairs sorted by name; honours the env override.
    An override that cannot be read raises FrameFormatError naming the
    directory or file."""
    override = os.environ.get(CORPUS_ENV)
    if override:
        entries = []
        path = override
        try:
            for fname in sorted(os.listdir(override)):
                if fname.endswith(".vf"):
                    path = os.path.join(override, fname)
                    with open(path, encoding="utf-8") as fh:
                        entries.append((fname[:-3], fh.read()))
        except (OSError, ValueError) as exc:
            raise FrameFormatError(f"{path}: {exc}") from None
        return entries
    root = resources.files("ilkit").joinpath("data")
    return sorted((p.name[:-3], p.read_text(encoding="utf-8"))
                  for p in root.iterdir() if p.name.endswith(".vf"))


def _parse(name: str, text: str):
    """One entry's model; a bad file raises FrameFormatError naming it."""
    try:
        return parse_frame_text(text)
    except FrameFormatError as exc:
        folder = os.environ.get(CORPUS_ENV) or resources.files("ilkit").joinpath("data")
        raise FrameFormatError(f"{os.path.join(folder, name + '.vf')}: {exc}") from None


def corpus_names() -> list[str]:
    return [name for name, _ in corpus_entries()]


def corpus_models():
    """All corpus models as (name, Model) pairs, sorted by name."""
    return [(name, _parse(name, text)) for name, text in corpus_entries()]


def load(name: str):
    """One corpus model by name (the file stem)."""
    for entry, text in corpus_entries():
        if entry == name:
            return _parse(name, text)
    raise KeyError(f"no corpus model named {name!r}")
