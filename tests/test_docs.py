"""Consistency checks between the docs tree and the code.

``docs/scenarios.md`` documents the full spec schema, every registered
component name and every preset; these tests fail when a registration or a
spec field is added (or renamed) without updating the doc — the doc cannot
silently rot.
"""

from __future__ import annotations

import dataclasses
import re
import typing
from pathlib import Path

import pytest

import repro.experiments.presets  # noqa: F401  (preset registration)
import repro.experiments.spec as spec_module
from repro.core.config import L4SpanConfig
from repro.ran.cell import CellConfig
from repro.ran.phy import AirInterfaceConfig
from repro.registry import (CC_SENDERS, CHANNEL_PROFILES, MARKERS,
                            SCENARIO_PRESETS, SCHEDULERS)
from repro.units import FINITE
from repro.workloads.flows import FlowSpec

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: Every class whose fields docs/scenarios.md tabulates.
FIELD_CLASSES = (
    spec_module.ScenarioSpec, spec_module.CellSpec, spec_module.UeSpec,
    FlowSpec, spec_module.ShardingSpec, spec_module.MobilitySpec,
    spec_module.HandoverSpec, spec_module.PopulationSpec, CellConfig,
    AirInterfaceConfig, L4SpanConfig)


@pytest.fixture(scope="module")
def scenarios_md() -> str:
    return (DOCS / "scenarios.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def scenarios_tokens(scenarios_md) -> set[str]:
    """Every backtick-quoted token in the doc.

    Newlines are excluded from tokens so the ``` fences of code blocks
    cannot desynchronise the backtick pairing.
    """
    return set(re.findall(r"`([^`\n]+)`", scenarios_md))


def test_docs_tree_exists():
    assert (DOCS / "architecture.md").is_file()
    assert (DOCS / "scenarios.md").is_file()
    assert (DOCS / "service.md").is_file()


@pytest.mark.parametrize("registry", [
    CC_SENDERS, MARKERS, CHANNEL_PROFILES, SCHEDULERS, SCENARIO_PRESETS,
], ids=lambda r: r.kind)
def test_every_registered_name_documented(registry, scenarios_tokens):
    for name in registry.names():
        assert name in scenarios_tokens, (
            f"{registry.kind} {name!r} is registered but missing from "
            f"docs/scenarios.md")


@pytest.mark.parametrize("cls", FIELD_CLASSES, ids=lambda c: c.__name__)
def test_every_spec_field_documented(cls, scenarios_tokens):
    for field in dataclasses.fields(cls):
        assert field.name in scenarios_tokens, (
            f"{cls.__name__}.{field.name} exists but is missing from "
            f"docs/scenarios.md")


def test_field_tables_name_only_real_fields(scenarios_md):
    """Reverse direction: every field-table row names a live spec field."""
    section = scenarios_md.split("## ScenarioSpec fields", 1)[1]
    section = section.split("## Component registries", 1)[0]
    cells = re.findall(r"^\| ([^|]*`[^|]*) \|", section, flags=re.MULTILINE)
    names = [name for cell in cells for name in re.findall(r"`([^`]+)`", cell)]
    assert names, "no field table found in docs/scenarios.md"
    fields = {field.name for cls in FIELD_CLASSES
              for field in dataclasses.fields(cls)}
    stale = sorted(set(names) - fields)
    assert not stale, f"docs/scenarios.md documents non-existent fields {stale}"


def _domain_texts() -> dict[str, str]:
    """Field name -> its domain as the doc states it: the declared text,
    ``FINITE`` for a float without one, else a dash.  A name several
    classes share must carry one domain in all of them."""
    texts: dict[str, set] = {}
    for cls in FIELD_CLASSES:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            domain = field.metadata.get("domain")
            is_float = hints[field.name] in (float, typing.Optional[float])
            text = (domain.text if domain is not None
                    else FINITE if is_float else "—")
            texts.setdefault(field.name, set()).add(text)
    shared = {name: sorted(found) for name, found in texts.items()
              if len(found) > 1}
    assert not shared, f"one field name, several domains: {shared}"
    return {name: found.pop() for name, found in texts.items()}


def test_field_table_domains_match_the_declarations(scenarios_md):
    """Every field table has a domain column, and each row's domain is the
    one its field declares (both ways: a changed declaration or a changed
    row fails)."""
    section = scenarios_md.split("## ScenarioSpec fields", 1)[1]
    section = section.split("## Component registries", 1)[0]
    texts = _domain_texts()
    tables = re.findall(r"^\| field \|.*\n\|[-|]+\n(?:\|.*\n?)+", section,
                        flags=re.MULTILINE)
    assert tables and len(tables) == section.count("\n| field |"), (
        "a field table the domain check does not parse")
    for table in tables:
        lines = table.strip().splitlines()
        header = [cell.strip() for cell in lines[0].strip("|").split("|")]
        assert "domain" in header, f"field table without a domain: {lines[0]}"
        column = header.index("domain")
        for line in lines[2:]:
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            for name in re.findall(r"`([^`]+)`", cells[0]):
                assert cells[column] == texts[name], (
                    f"docs/scenarios.md gives {name} the domain "
                    f"{cells[column]!r}; the code declares {texts[name]!r}")


def test_documented_presets_actually_exist(scenarios_md):
    """Reverse direction: the preset table only names real presets."""
    table = scenarios_md.split("**`SCENARIO_PRESETS`**", 1)[1]
    rows = re.findall(r"^\| `([^`]+)`", table, flags=re.MULTILINE)
    assert rows, "preset table not found in docs/scenarios.md"
    for name in rows:
        assert name in SCENARIO_PRESETS, (
            f"docs/scenarios.md documents unknown preset {name!r}")
    # ... and misses none.
    documented = set(rows)
    for name in SCENARIO_PRESETS.names():
        assert name in documented


@pytest.fixture(scope="module")
def service_md() -> str:
    return (DOCS / "service.md").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def service_tokens(service_md) -> set[str]:
    return set(re.findall(r"`([^`\n]+)`", service_md))


def test_service_doc_covers_every_route(service_md):
    """Every route the handler dispatches appears in docs/service.md."""
    for route in ("GET /health", "GET /schema", "POST /runs", "GET /runs",
                  "GET /runs/{id}", "GET /runs/{id}/document",
                  "GET /runs/{id}/events"):
        # The doc renders them inside table cells as `GET /health` etc.
        method, path = route.split(" ", 1)
        assert re.search(rf"`{method}\s+{re.escape(path)}`", service_md), (
            f"route {route!r} is served but missing from docs/service.md")


def test_service_doc_covers_request_and_override_keys(service_tokens):
    from repro.experiments.options import RuntimeOptions
    from repro.service.jobs import REQUEST_KEYS, RUN_STATUSES

    for key in REQUEST_KEYS:
        assert key in service_tokens, (
            f"POST /runs key {key!r} missing from docs/service.md")
    for field in dataclasses.fields(RuntimeOptions):
        assert field.name in service_tokens, (
            f"override {field.name!r} missing from docs/service.md")
    for status in RUN_STATUSES:
        assert status in service_tokens, (
            f"run status {status!r} missing from docs/service.md")


def test_service_doc_states_current_schema_version(service_md):
    from repro.experiments.results import SCHEMA_VERSION
    assert f"version `{SCHEMA_VERSION}`" in service_md, (
        "docs/service.md must state the current result-document "
        f"schema_version ({SCHEMA_VERSION})")


def test_service_doc_covers_document_fields(service_tokens):
    """The top-level field list in the doc tracks the real document."""
    import repro.api as api
    document = api.run_document(api.ScenarioSpec(num_ues=1, duration_s=0.2))
    for key in document:
        assert key in service_tokens, (
            f"document field {key!r} missing from docs/service.md")


def test_service_doc_covers_service_env_vars(service_tokens):
    from repro.service.archive import DEFAULT_RUNS_DIR, RUNS_DIR_ENV
    assert f"${RUNS_DIR_ENV}" in service_tokens
    assert DEFAULT_RUNS_DIR in service_tokens
    assert "REPRO_CORE_BUDGET" in service_tokens


def test_service_doc_notes_engine_block_deprecation(service_md):
    assert "`engine` block" in service_md
    assert "DeprecationWarning" in service_md


def test_documented_defaults_match_spec(scenarios_md):
    """Spot-check load-bearing defaults the doc states as values."""
    spec = spec_module.ScenarioSpec()
    assert f"`{spec.mobility.interruption_s:.3f}`" == "`0.020`"
    assert "`0.020`" in scenarios_md
    assert spec.mobility.ho_mode == "forward"


@pytest.fixture(scope="module")
def architecture_md() -> str:
    return (DOCS / "architecture.md").read_text(encoding="utf-8")


def test_architecture_doc_covers_every_invariant_suite(architecture_md):
    """The fuzzing section's suite table tracks INVARIANT_SUITES."""
    from repro.experiments.fuzz import INVARIANT_SUITES

    section = architecture_md.split("## Differential fuzzing", 1)[1]
    for name in INVARIANT_SUITES:
        assert f"`{name}`" in section, (
            f"invariant suite {name!r} is registered but missing from the "
            "Differential fuzzing section of docs/architecture.md")


def test_architecture_doc_covers_fuzz_workflow(architecture_md):
    """Campaign runner, minimizer and corpus policy are all documented."""
    section = architecture_md.split("## Differential fuzzing", 1)[1]
    for token in ("scripts/fuzz_specs.py", "SweepRunner", "--time-budget",
                  "--minimize", "tests/corpus/", "tests/test_corpus.py",
                  "failure_signature", "fuzz-nightly.yml",
                  "REPRO_CORE_BUDGET"):
        assert token in section, (
            f"{token!r} missing from the Differential fuzzing section of "
            "docs/architecture.md")


def test_readme_links_differential_fuzzing_section():
    readme = (DOCS.parent / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md#differential-fuzzing" in readme, (
        "README must link the Differential fuzzing section of "
        "docs/architecture.md")
