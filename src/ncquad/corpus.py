"""Access to the bundled example inputs (the named family members used
throughout the test suite and the docs)."""

from __future__ import annotations

from pathlib import Path

_CORPUS = Path(__file__).with_name("corpus")


def corpus_names() -> list[str]:
    return sorted(p.name for p in _CORPUS.iterdir() if p.name.endswith(".json"))


def corpus_path(name: str) -> Path:
    if not name.endswith(".json"):
        name += ".json"
    path = _CORPUS / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled input named {name!r}")
    return path
