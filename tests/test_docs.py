"""Documentation-rot guards.

The markdown docs name modules, functions, protocol spec names, and CLI
subcommands.  These tests extract those references and verify each still
exists, so the documentation cannot silently drift from the code.
"""

import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parent.parent
DOC_FILES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "docs" / "THEORY.md",
    REPO / "docs" / "PROTOCOLS.md",
    REPO / "docs" / "SIMULATOR.md",
    REPO / "docs" / "USAGE.md",
]

_MODULE_REF = re.compile(r"`(repro(?:\.[a-z_]+)+)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`")
_SPEC_REF = re.compile(r"`([a-z0-9-]+@(?:mp|sm)-(?:cr|byz))`")
_CLI_REF = re.compile(r"python -m repro ([a-z][a-z-]*)")


def _doc_text():
    return {path: path.read_text() for path in DOC_FILES if path.exists()}


class TestDocFilesExist:
    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_exists_and_nonempty(self, path):
        assert path.exists(), path
        assert len(path.read_text()) > 200


class TestModuleReferences:
    def test_every_referenced_module_imports(self):
        failures = []
        for path, text in _doc_text().items():
            for match in _MODULE_REF.finditer(text):
                dotted, attr = match.group(1), match.group(2)
                try:
                    module = importlib.import_module(dotted)
                except ImportError:
                    # maybe the last component is actually an attribute
                    parent, _, leaf = dotted.rpartition(".")
                    try:
                        module = importlib.import_module(parent)
                        if not hasattr(module, leaf):
                            failures.append((path.name, dotted))
                        continue
                    except ImportError:
                        failures.append((path.name, dotted))
                        continue
                if attr and not hasattr(module, attr):
                    failures.append((path.name, f"{dotted}.{attr}"))
        assert not failures, failures


class TestSpecReferences:
    def test_every_referenced_spec_is_registered(self):
        from repro.protocols.base import all_specs

        known = {spec.name for spec in all_specs()}
        failures = []
        for path, text in _doc_text().items():
            for match in _SPEC_REF.finditer(text):
                if match.group(1) not in known:
                    failures.append((path.name, match.group(1)))
        assert not failures, failures


class TestCLIReferences:
    def test_every_referenced_subcommand_exists(self):
        from repro.cli import _COMMANDS

        failures = []
        for path, text in _doc_text().items():
            for match in _CLI_REF.finditer(text):
                subcommand = match.group(1)
                if subcommand in ("repro",):  # module invocations
                    continue
                if subcommand not in _COMMANDS:
                    failures.append((path.name, subcommand))
        assert not failures, failures

    def test_design_cli_row_names_every_subcommand(self):
        from repro.cli import _COMMANDS

        (row,) = [
            line for line in (REPO / "DESIGN.md").read_text().splitlines()
            if line.startswith("| CLI |")
        ]
        listed = row.split("|")[3].strip().rstrip(".").split(" / ")
        assert sorted(listed) == sorted(_COMMANDS)


class TestLemmaReferences:
    def test_design_lemma_mentions_are_registered(self):
        from repro.core.lemmas import ALL_LEMMAS
        from repro.paper import LEMMA_INDEX

        known = {entry.lemma_id for entry in ALL_LEMMAS} | set(LEMMA_INDEX)
        text = (REPO / "DESIGN.md").read_text()
        mentioned = set(re.findall(r"Lemma \d\.\d+", text))
        unknown = {m for m in mentioned if m not in known}
        assert not unknown, unknown
