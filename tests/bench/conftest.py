"""Bench fixtures: one quick run per suite, shared by every bench test."""

from __future__ import annotations

import copy
import importlib

import pytest


@pytest.fixture(scope="session")
def quick_doc():
    """``quick_doc(name)``: a private copy of one quick run of that suite.

    Each suite runs once per session however many tests read its
    document; the copy lets a test doctor it freely.
    """
    docs: dict[str, dict] = {}

    def get(name: str) -> dict:
        if name not in docs:
            module = importlib.import_module(f"repro.bench.{name}")
            docs[name] = getattr(module, f"run_{name}")(quick=True)
        return copy.deepcopy(docs[name])

    return get
