"""``scripts/ab_pairs.py`` byte-compiles both checkouts before its pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"


@pytest.fixture(scope="module")
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, body: str = "VALUE = 1\n") -> Path:
    for folder in ("src/pkg", "benchmarks/ledger"):
        (root / folder).mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text(body)
    (root / "benchmarks" / "ledger" / "run.py").write_text("VALUE = 2\n")
    return root


def test_compile_tree_writes_bytecode_for_src_and_the_ledger(
        ab_pairs, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    checkout = _checkout(tmp_path)
    ab_pairs.compile_tree(str(checkout))
    assert list((checkout / "src" / "pkg" / "__pycache__").glob("mod.*.pyc"))
    assert list((checkout / "benchmarks" / "ledger" / "__pycache__")
                .glob("run.*.pyc"))


def test_compile_tree_stops_on_a_file_that_does_not_compile(ab_pairs,
                                                            tmp_path):
    checkout = _checkout(tmp_path, body="def broken(:\n")
    with pytest.raises(SystemExit, match="compileall exited"):
        ab_pairs.compile_tree(str(checkout))
