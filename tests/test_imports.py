"""Import hygiene: the package loads lazily and each command imports only what it uses.

Every probe runs in a fresh interpreter, since what one test imports stays
loaded for the next.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import proxylineage
from proxylineage.cli import build_parser

from corpusgen import varied_sourced_corpus, write_corpus_fixtures

SRC = str(Path(proxylineage.__file__).resolve().parents[1])


def probe(code: str, *args: str):
    """Run `code` in a fresh interpreter; return what it printed, parsed as JSON."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", code, *args],
                               capture_output=True, text=True, env=env)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def run_command(*args: str) -> dict:
    """Run one CLI command; return its exit code and the modules it left loaded."""
    return probe("import json, sys\n"
                 "from proxylineage.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))", *args)


def test_cli_import_loads_only_cli_errors_and_version():
    code = ("import json, sys\n"
            "import proxylineage.cli\n"
            "print(json.dumps([sorted(m for m in sys.modules if m.startswith('proxylineage')),\n"
            "                  'concurrent.futures' in sys.modules, 'logging' in sys.modules,\n"
            "                  'click' in sys.modules]))")
    loaded, futures, logging, click = probe(code)
    assert loaded == ["proxylineage", "proxylineage._version", "proxylineage.cli",
                      "proxylineage.errors"]
    assert not futures and not logging and not click


@pytest.fixture
def corpus():
    return varied_sourced_corpus(random.Random(3))


@pytest.fixture
def corpus_args(corpus, tmp_path):
    traces, contracts = write_corpus_fixtures(corpus, tmp_path)
    return ["--traces", str(traces), "--contracts", str(contracts)]


def write_findings(corpus, path: Path) -> Path:
    """One finding on line 1 of every source file of the corpus."""
    path.write_text("".join(
        json.dumps({"tool": "slither", "vuln_type": "tx-origin", "contract": record.address,
                    "directory": file.directory, "filename": file.filename,
                    "start_line": 1, "end_line": 1, "message": "m"}) + "\n"
        for record in corpus.contracts.values() for file in record.files))
    return path


def test_vuln_lifecycle_loads_no_dataset_solidity_fingerprint_evaluation_or_explorer(
        corpus, corpus_args, tmp_path):
    findings = write_findings(corpus, tmp_path / "findings.ndjson")
    result = run_command("vuln-lifecycle", *corpus_args, "--findings", str(findings),
                         "--out", str(tmp_path / "lifecycle.json"))
    assert result["code"] == 0
    for module in ("dataset", "solidity", "fingerprint", "evaluation", "explorer"):
        assert f"proxylineage.{module}" not in result["modules"]
    assert "proxylineage.pairing" in result["modules"]


def test_ingest_without_network_loads_no_explorer(corpus_args, tmp_path):
    result = run_command("ingest", *corpus_args, "--out", str(tmp_path / "corpus"))
    assert result["code"] == 0
    assert "proxylineage.explorer" not in result["modules"]
    assert "concurrent.futures" not in result["modules"]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(proxylineage)
    for name in proxylineage.__all__:
        assert getattr(proxylineage, name) is not None
        assert name in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        proxylineage.no_such_name  # noqa: B018
    assert getattr(proxylineage, "_event_from_obj", None) is None


FINGERPRINT_IS_THE_SUBMODULE = """
import importlib, inspect, json
{first}
import proxylineage
from proxylineage import fingerprint
module = importlib.import_module("proxylineage.fingerprint")
print(json.dumps([inspect.ismodule(module), fingerprint is module,
                  proxylineage.fingerprint is module, inspect.isfunction(module.fingerprint)]))
"""


@pytest.mark.parametrize("first", [
    "from proxylineage.fingerprint import record_shingles",  # submodule before the name
    "from proxylineage import fingerprint",  # name before the submodule
    "import proxylineage.evaluation",  # submodule loaded by another module
    "import proxylineage.fingerprint",
])
def test_fingerprint_is_the_module_whatever_the_import_order(first):
    assert probe(FINGERPRINT_IS_THE_SUBMODULE.format(first=first)) == [True, True, True, True]


def test_cli_literals_equal_library_constants():
    from proxylineage.fingerprint import DEFAULT_SEED, DEFAULT_SIGNATURE_LENGTH
    from proxylineage.lifecycle import INTERSECTION, UNION

    commands = next(a for a in build_parser()._actions if a.dest == "command")

    def option(command, dest):
        return next(a for a in commands.choices[command]._actions if a.dest == dest)

    mode = option("vuln-lifecycle", "mode")
    assert list(mode.choices) == [UNION, INTERSECTION]
    assert mode.default == UNION
    assert option("fingerprint", "k").default == DEFAULT_SIGNATURE_LENGTH
    assert option("fingerprint", "seed").default == DEFAULT_SEED


@pytest.fixture
def lineage_run(corpus, corpus_args, tmp_path):
    """Runs one command on the corpus fixture; the bundle, fingerprints and findings
    it reads are made first."""
    from proxylineage.cli import main

    bundle, fingerprints = tmp_path / "bundle", tmp_path / "fingerprints.ndjson"
    assert main(["emit", *corpus_args, "--out", str(bundle)]) == 0
    assert main(["fingerprint", *corpus_args, "--out", str(fingerprints)]) == 0
    findings = write_findings(corpus, tmp_path / "findings.ndjson")
    commands = {
        "build-lineages": ["build-lineages", *corpus_args, "--out", str(tmp_path / "lineages")],
        "vuln-lifecycle": ["vuln-lifecycle", *corpus_args, "--findings", str(findings),
                           "--out", str(tmp_path / "lifecycle.json")],
        "stats": ["stats", str(bundle)],
        "emit": ["emit", *corpus_args, "--out", str(tmp_path / "emitted")],
        "ingest": ["ingest", *corpus_args, "--out", str(tmp_path / "corpus")],
        "fingerprint": ["fingerprint", *corpus_args, "--out", str(tmp_path / "fps.ndjson")],
        "evaluate-lsh --fingerprints": ["evaluate-lsh", *corpus_args,
                                        "--fingerprints", str(fingerprints)],
    }

    def run(command: str) -> list[str]:
        result = run_command(*commands[command])
        assert result["code"] == 0
        return result["modules"]

    return run


# Records are NamedTuples: a dataclass costs the import of dataclasses and of
# inspect, and the build of each class, in every command that loads one.
@pytest.mark.parametrize("command", ["build-lineages", "vuln-lifecycle", "stats", "emit",
                                     "ingest", "evaluate-lsh --fingerprints"])
def test_commands_load_neither_dataclasses_nor_inspect(lineage_run, command):
    modules = lineage_run(command)
    assert "dataclasses" not in modules
    assert "inspect" not in modules


# hashlib loads OpenSSL's _hashlib; only the SHA-256 digests of a bundle manifest need it
@pytest.mark.parametrize("command", ["build-lineages", "vuln-lifecycle", "stats",
                                     "evaluate-lsh --fingerprints"])
def test_commands_that_hash_nothing_load_no_openssl(lineage_run, command):
    assert "_hashlib" not in lineage_run(command)


def test_fingerprint_hashes_shingles_without_openssl(lineage_run):
    # shingles are hashed with the builtin _blake2, the same blake2b hashlib hands out
    modules = lineage_run("fingerprint")
    assert "proxylineage.solidity" in modules
    assert "_blake2" in modules
    assert "_hashlib" not in modules


def test_evaluate_lsh_with_fingerprints_loads_no_lexer(lineage_run):
    # the signatures are read, not computed, so nothing is lexed or hashed
    modules = lineage_run("evaluate-lsh --fingerprints")
    assert "proxylineage.fingerprint" in modules
    assert "proxylineage.solidity" not in modules
    assert "_blake2" not in modules


def test_build_lineages_loads_no_dataset_pairing_or_solidity(lineage_run):
    modules = lineage_run("build-lineages")
    assert "proxylineage.lineage" in modules
    for module in ("dataset", "pairing", "solidity"):
        assert f"proxylineage.{module}" not in modules
