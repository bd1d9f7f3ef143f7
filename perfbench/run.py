"""Benchmark of the proxylineage CLI over seeded workloads.

    python3 perfbench/run.py --workload bundle-bigfiles --seed 1 --seconds 25 --trace 0

One client runs each pass's commands one after another (a closed loop, no
concurrency). Every command runs in a fresh interpreter with PYTHONPATH=src,
as ``proxylineage <cmd>`` would, so import cost is included as users pay it.
The inputs are generated from the seed by a separate process before any
timing; the program receives only files.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced passes with passes run under perfbench/traced_cli.py
and reports the per-layer metrics. Outputs are checked outside the timed
region. Human-readable lines go first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. A run
record with fixture digests, per-command exit status, stderr tail and
output digests is written to .perfbench/records/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CLI = "import sys; from proxylineage.cli import main; sys.exit(main())"
SETUP = "import proxylineage.cli"
# A fixed pure-Python job in a fresh interpreter, independent of the program:
# interpreter start-up plus string, dict, integer and sort work. It runs
# between passes; pass_s and setup_s are reported at the host speed where it
# takes REFERENCE_NOMINAL_S (see perfbench/README.md, "Host speed").
REFERENCE = (
    "counts = {}\n"
    "total = 0\n"
    "for i in range(600000):\n"
    "    key = str(i * 7919 % 10007)\n"
    "    counts[key] = counts.get(key, 0) + len(key)\n"
    "    total += i * i % 7\n"
    "text = ' '.join(sorted(counts, key=lambda k: (counts[k], k)))\n"
    "total += len(text.split())\n"
)
REFERENCE_NOMINAL_S = 0.5
CHILD_TIMEOUT_S = 60  # far above any command's normal time; keeps a hung run under 180 s
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

TRACES = ["--traces", "{in}/traces.ndjson", "--contracts", "{in}/contracts.ndjson"]
FINDINGS = ["--findings", "{in}/slither.ndjson", "--findings", "{in}/mythril.ndjson",
            "--findings", "{in}/conkas.ndjson", "--category-map", "{in}/category_map.json"]

# workload -> [(label, CLI arguments, output path)], run in this order each pass.
WORKLOADS: dict[str, list[tuple[str, list[str], str]]] = {
    "bundle-bigfiles": [
        ("emit", ["emit", *TRACES, "--out", "{out}/bundle"], "bundle"),
        ("stats", ["stats", "{out}/bundle", "--format", "json", "--out", "{out}/stats.json"],
         "stats.json"),
    ],
    "lsh-boilerplate": [
        ("fingerprint", ["fingerprint", *TRACES, "--out", "{out}/fps.ndjson"], "fps.ndjson"),
        ("evaluate_lsh", ["evaluate-lsh", *TRACES, "--fingerprints", "{out}/fps.ndjson",
                          "--format", "json", "--out", "{out}/eval.json"], "eval.json"),
    ],
    "traces-heavy": [
        ("ingest", ["ingest", *TRACES, "--out", "{out}/corpus"], "corpus"),
        ("build_lineages", ["build-lineages", *TRACES, "--out", "{out}/lineages"], "lineages"),
    ],
    "lifecycle-3tools": [
        ("vuln_lifecycle_union", ["vuln-lifecycle", *TRACES, *FINDINGS, "--mode", "union",
                                  "--out", "{out}/union.json"], "union.json"),
        ("vuln_lifecycle_intersection", ["vuln-lifecycle", *TRACES, *FINDINGS, "--mode",
                                         "intersection", "--out", "{out}/intersection.json"],
         "intersection.json"),
    ],
}
COMMAND_LABELS = ["ingest", "build_lineages", "emit", "stats", "fingerprint", "evaluate_lsh",
                  "vuln_lifecycle_union", "vuln_lifecycle_intersection"]
EXCLUSION_REASONS = ["NOT_SAME_CREATOR", "OVERLAPPING_WINDOW", "SINGLETON", "UNRESOLVED_METADATA"]
LAYERS = ["cli", "corpus", "lineage", "pairing", "textmetrics", "solidity", "fingerprint",
          "evaluation", "lifecycle", "dataset"]

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_ops_pct": "%"}

# Per-layer metric -> unit. Times are span totals per pass (median over the
# traced passes); counts are exact per pass; <layer>.self_s is span time minus
# the time of its child spans.
PER_LAYER: dict[str, str] = {
    **{f"cli.{label}_s": "s" for label in COMMAND_LABELS},
    "cli.cpu_s": "s", "cli.failed_ops_pct": "%",
    "corpus.load_s": "s", "corpus.events_read": "count", "corpus.events_kept": "count",
    "corpus.contracts": "count", "corpus.input_mb": "MiB", "corpus.write_s": "s",
    "corpus.upgrade_proxies_s": "s",
    "lineage.build_s": "s", "lineage.lineages": "count", "lineage.pairs": "count",
    **{f"lineage.exclusions.{reason}": "count" for reason in EXCLUSION_REASONS},
    "pairing.pair_files_s": "s", "pairing.pair_files_calls": "count",
    "pairing.file_pairs": "count", "pairing.similarity_s": "s", "pairing.pair_functions_s": "s",
    "pairing.function_pairs": "count", "pairing.levenshtein_calls": "count",
    "textmetrics.lcs_s": "s", "textmetrics.lcs_calls": "count", "textmetrics.lcs_cells": "count",
    "textmetrics.lcs_identical_pct": "%",
    "solidity.tokenize_s": "s", "solidity.tokenize_calls": "count",
    "solidity.chars_lexed": "count", "solidity.lex_repeat_ratio": "ratio",
    "solidity.extract_functions_s": "s", "solidity.functions": "count",
    "fingerprint.fingerprint_s": "s", "fingerprint.contracts": "count",
    "fingerprint.shingles": "count", "fingerprint.minhash_s": "s",
    "fingerprint.index_build_s": "s", "fingerprint.candidates_s": "s",
    "fingerprint.retrievals": "count", "fingerprint.candidates_proposed": "count",
    "fingerprint.compare_calls": "count", "fingerprint.compare_s": "s",
    "fingerprint.verified_pct": "%", "fingerprint.io_s": "s",
    "evaluation.evaluate_s": "s", "evaluation.queries": "count",
    "evaluation.retrievals_per_query": "1/query", "evaluation.scenarios": "count",
    "evaluation.identical_scope_rows": "count",
    "lifecycle.load_findings_s": "s", "lifecycle.findings": "count",
    "lifecycle.diff_pair_s": "s", "lifecycle.records": "count", "lifecycle.stats_s": "s",
    "lifecycle.stats_failures": "count",
    "dataset.build_bundle_s": "s", "dataset.emit_s": "s", "dataset.bytes_written": "count",
    "dataset.files_written": "count", "dataset.load_bundle_s": "s",
    "dataset.compute_stats_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "host.probe_ms": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- child processes ---------------------------------------------------------

@dataclass
class Child:
    argv: list[str]
    returncode: int
    wall_s: float
    maxrss_kb: int
    cpu_s: float
    stderr_tail: str = ""


def _alarm(signum, frame):
    raise TimeoutError("child process timed out")


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> Child:
    """Run one command to completion; resource usage is read for this child alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = perf() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = stderr_path.read_bytes()[-600:].decode("utf-8", "replace")
    return Child(argv, proc.returncode, wall, usage.ru_maxrss,
                 usage.ru_utime + usage.ru_stime, tail)


def digest_path(path: Path) -> str | None:
    """SHA-256 over a file, or over a directory's sorted relative paths and bytes."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    if not path.is_dir():
        return None
    digest = hashlib.sha256()
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        digest.update(file.relative_to(path).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(file.read_bytes()).digest())
    return digest.hexdigest()


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a gauge of host speed."""
    samples = []
    for _ in range(repeats):
        start = perf()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append(perf() - start)
    return statistics.median(samples) * 1000


# --- passes ------------------------------------------------------------------

@dataclass
class Pass:
    pass_id: int
    kind: str  # timed | untraced | traced
    wall_s: float = 0.0
    commands: list[dict] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.passes: list[Pass] = []
        self.setup_samples: list[float] = []
        self.reference_samples: list[float] = []
        self.checks: dict[str, dict] = {}
        self.saved: dict[int, dict] = {}  # pass id -> parsed outputs for the final checks
        self.fixtures: dict[str, dict] = {}
        self.expect: dict = {}

    # -- setup ---------------------------------------------------------------

    def reference_sample(self) -> None:
        self.reference_samples.append(run_child(
            [sys.executable, "-c", REFERENCE], self.work / "ref.out", self.work / "ref.err").wall_s)

    def setup_sample(self) -> float:
        child = run_child([sys.executable, "-c", SETUP], self.work / "setup.out",
                          self.work / "setup.err")
        if child.returncode != 0:
            raise BenchError(f"`{SETUP}` failed with src={SRC}:\n{child.stderr_tail}")
        self.setup_samples.append(child.wall_s)
        return child.wall_s

    def generate(self) -> None:
        child = run_child([sys.executable, str(BENCH / "gen.py"), "--workload", self.workload,
                           "--seed", str(self.seed), "--out", str(self.inputs)],
                          self.work / "gen.out", self.work / "gen.err")
        if child.returncode != 0:
            raise BenchError(f"input generation failed:\n{child.stderr_tail}")
        for path in sorted(self.inputs.iterdir()):
            self.fixtures[path.name] = {"sha256": digest_path(path), "bytes": path.stat().st_size}
        self.expect = json.loads((self.inputs / "expect.json").read_text())
        self.expect["observations"] = {tuple(o) for o in self.expect["observations"]}

    # -- one pass ------------------------------------------------------------

    def run_pass(self, kind: str) -> Pass:
        record = Pass(len(self.passes), kind)
        pdir = self.work / f"pass-{record.pass_id}"
        pdir.mkdir()
        children = []
        start = perf()
        for label, args, _output in WORKLOADS[self.workload]:
            cli_args = [a.replace("{in}", str(self.inputs)).replace("{out}", str(pdir))
                        for a in args]
            if kind == "traced":
                argv = [sys.executable, str(BENCH / "traced_cli.py"),
                        str(pdir / f"{label}.spans.json"), str(record.pass_id), label, *cli_args]
            else:
                argv = [sys.executable, "-c", CLI, *cli_args]
            children.append(run_child(argv, pdir / f"{label}.stdout", pdir / f"{label}.stderr"))
        record.wall_s = perf() - start

        for (label, _args, output), child in zip(WORKLOADS[self.workload], children):
            crashed = child.returncode != 0 or "Traceback (most recent call last)" in child.stderr_tail
            record.commands.append({
                "label": label, "argv": child.argv[3:] if kind != "traced" else child.argv[5:],
                "exit": child.returncode, "traceback": "Traceback" in child.stderr_tail,
                "wall_s": child.wall_s, "maxrss_kb": child.maxrss_kb, "cpu_s": child.cpu_s,
                "stderr_tail": child.stderr_tail, "output_digest": digest_path(pdir / output),
                "failed": crashed, "failed_checks": [],
            })
        self.check_pass(record, pdir)
        if kind == "traced":
            record.layers = self.layer_totals(pdir)
        shutil.rmtree(pdir)
        self.passes.append(record)
        return record

    def layer_totals(self, pdir: Path) -> dict[str, float]:
        """Sum span times, layer self times and counts over one pass's commands."""
        totals: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            totals[key] = totals.get(key, 0.0) + value

        for label, _args, _output in WORKLOADS[self.workload]:
            path = pdir / f"{label}.spans.json"
            if not path.exists():
                continue
            data = json.loads(path.read_text())
            names, spans = data["names"], data["spans"]
            child_time = [0.0] * len(spans)
            for name, start, end, parent, _pass in spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for (name, start, end, _parent, _pass), inner in zip(spans, child_time):
                add("span." + names[name], end - start)
                add(names[name].split(".")[0] + ".self_s", end - start - inner)
            for key, value in data["counts"].items():
                add(key, value)
        return totals

    # -- output checks (outside the timed region) ----------------------------

    def check(self, name: str, ok: bool, detail: str, record: Pass, labels: list[str]) -> None:
        entry = self.checks.setdefault(name, {"passed": 0, "failed": 0, "details": []})
        entry["passed" if ok else "failed"] += 1
        if not ok:
            entry["details"].append(f"pass {record.pass_id}: {detail}")
            for command in record.commands:
                if command["label"] in labels:
                    command["failed"] = True
                    command["failed_checks"].append(name)

    def ok(self, record: Pass, label: str) -> bool:
        return any(c["label"] == label and not c["failed"] for c in record.commands)

    def check_accounting(self, record: Pass, label: str, lineages: list, exclusions: list) -> None:
        members = [(l["proxy"], v["address"]) for l in lineages for v in l["versions"]]
        excluded = [(e["proxy"], e["callee"]) for e in exclusions]
        accounted = members + excluded
        expected = self.expect["observations"]
        ok = len(accounted) == len(set(accounted)) and set(accounted) == expected
        self.check("accounting", ok,
                   f"{len(set(accounted))} accounted ({len(accounted)} rows) vs "
                   f"{len(expected)} observed", record, [label])

    def check_pass(self, record: Pass, pdir: Path) -> None:
        saved = self.saved.setdefault(record.pass_id, {})
        if self.workload == "bundle-bigfiles":
            if self.ok(record, "emit"):
                lineages = json.loads((pdir / "bundle/lineages.json").read_text())
                diagnostics = json.loads((pdir / "bundle/diagnostics.json").read_text())
                pairs = json.loads((pdir / "bundle/contract_pairs.json").read_text())
                self.check_accounting(record, "emit", lineages, diagnostics["lineage_exclusions"])
                expected_pairs = sum(len(l["versions"]) - 1 for l in lineages)
                self.check("pair_count", len(pairs) == expected_pairs,
                           f"{len(pairs)} contract pairs, expected {expected_pairs}",
                           record, ["emit"])
            if self.ok(record, "stats"):
                saved["stats"] = json.loads((pdir / "stats.json").read_text())
        elif self.workload == "lsh-boilerplate":
            if self.ok(record, "evaluate_lsh"):
                rows = json.loads((pdir / "eval.json").read_text())
                order = {"low": 0, "medium": 1, "high": 2}
                for scope in sorted({r["contract_type"] for r in rows}):
                    cells = sorted((r for r in rows if r["contract_type"] == scope),
                                   key=lambda r: order[r["similarity_threshold"]])
                    recalls = [r["recall_pct"] for r in cells]
                    self.check("recall_monotone",
                               all(a >= b for a, b in zip(recalls, recalls[1:])),
                               f"{scope} recall low..high = {recalls}", record, ["evaluate_lsh"])
                    truths = {r["tp"] + r["fn"] for r in cells}
                    self.check("truth_constant", len(truths) == 1,
                               f"{scope} tp+fn per threshold = {sorted(truths)}",
                               record, ["evaluate_lsh"])
        elif self.workload == "traces-heavy":
            if self.ok(record, "build_lineages"):
                lineages = json.loads((pdir / "lineages/lineages.json").read_text())
                diagnostics = json.loads((pdir / "lineages/diagnostics.json").read_text())
                exclusions = diagnostics["lineage_exclusions"]
                self.check_accounting(record, "build_lineages", lineages, exclusions)
                reasons = {e["reason"] for e in exclusions}
                self.check("reason_codes", reasons <= set(EXCLUSION_REASONS),
                           f"unknown reasons {sorted(reasons - set(EXCLUSION_REASONS))}",
                           record, ["build_lineages"])
        elif self.workload == "lifecycle-3tools":
            summaries = {}
            for label, mode in (("vuln_lifecycle_union", "union"),
                                ("vuln_lifecycle_intersection", "intersection")):
                if not self.ok(record, label):
                    continue
                counts = json.loads((pdir / f"{mode}.json").read_text())["summary"]["findings"]
                summaries[mode] = counts
                parts = counts["introduced"] + counts["persisted"] + counts["disappeared"]
                self.check("total_conserved", counts["total"] == parts,
                           f"{mode}: total {counts['total']} != {parts}", record, [label])
            if len(summaries) == 2:
                lower = [k for k in summaries["union"]
                         if summaries["union"][k] < summaries["intersection"][k]]
                self.check("union_covers_intersection", not lower,
                           f"union below intersection on {lower}", record,
                           ["vuln_lifecycle_union", "vuln_lifecycle_intersection"])

    def final_checks(self) -> None:
        """Checks across passes, and against an in-process reference."""
        for label, _args, _output in WORKLOADS[self.workload]:
            succeeded = [p for p in self.passes if self.ok(p, label)]
            for record in succeeded[1:]:
                first = self.command(succeeded[0], label)["output_digest"]
                self.check("identical_across_passes",
                           self.command(record, label)["output_digest"] == first,
                           f"{label} output differs from pass {succeeded[0].pass_id}",
                           record, [label])
        if self.workload == "bundle-bigfiles" and any("stats" in s for s in self.saved.values()):
            sys.path.insert(0, str(SRC))
            from proxylineage.corpus import load_corpus
            from proxylineage.dataset import build_bundle, compute_stats, stats_to_jsonable

            corpus = load_corpus(self.inputs / "traces.ndjson", self.inputs / "contracts.ndjson")
            reference = json.loads(json.dumps(stats_to_jsonable(compute_stats(build_bundle(corpus)))))
            for record in self.passes:
                stats = self.saved.get(record.pass_id, {}).get("stats")
                if stats is not None:
                    diff = sorted(k for k in reference if reference[k] != stats.get(k))
                    self.check("stats_match_in_memory", not diff,
                               f"reloaded stats differ on {diff}", record, ["stats"])

    @staticmethod
    def command(record: Pass, label: str) -> dict:
        return next(c for c in record.commands if c["label"] == label)

    # -- the measured loop ---------------------------------------------------

    def measure(self) -> None:
        kinds = ["untraced", "traced"] if self.trace else ["timed"]
        begin = perf()
        iteration_times: list[float] = []
        self.reference_sample()
        while True:
            started = perf()
            kind = kinds[len(iteration_times) % len(kinds)]
            if not self.trace:
                self.setup_sample()
            self.run_pass(kind)
            self.reference_sample()
            iteration_times.append(perf() - started)
            done = len(iteration_times)
            enough = done >= (2 * MIN_TRACED_PASSES if self.trace else MIN_PASSES)
            expected = statistics.median(iteration_times[-len(kinds):]) * len(kinds)
            if enough and done % len(kinds) == 0 and perf() - begin + expected > self.seconds:
                break

    # -- metrics -------------------------------------------------------------

    def attempted_failed(self) -> tuple[int, int]:
        commands = [c for p in self.passes for c in p.commands]
        return len(commands), sum(1 for c in commands if c["failed"])

    def end_to_end(self) -> dict[str, float]:
        timed = [p for p in self.passes if p.kind == "timed"]
        # Pass i and the setup sample before it ran between reference samples
        # i and i + 1; their mean is the host speed they met.
        refs = self.reference_samples
        scales = [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
        attempted, failed = self.attempted_failed()
        return {
            "pass_s": statistics.median(p.wall_s * k for p, k in zip(timed, scales)),
            "setup_s": statistics.median(s * k for s, k in zip(self.setup_samples, scales)),
            "peak_rss_mb": statistics.median(
                max(c["maxrss_kb"] for c in p.commands) / 1024 for p in timed),
            "ok_ops_pct": 100.0 * (attempted - failed) / attempted,
        }

    def per_layer(self, probe_ms: float) -> dict[str, float]:
        untraced = [p for p in self.passes if p.kind == "untraced"]
        traced = [p for p in self.passes if p.kind == "traced"]

        def med(key: str) -> float:
            return statistics.median(p.layers.get(key, 0.0) for p in traced)

        def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
            return scale * numerator / denominator if denominator else 0.0

        metrics: dict[str, float] = {}
        for label in COMMAND_LABELS:
            walls = [c["wall_s"] for p in untraced for c in p.commands if c["label"] == label]
            metrics[f"cli.{label}_s"] = statistics.median(walls) if walls else 0.0
        metrics["cli.cpu_s"] = statistics.median(
            sum(c["cpu_s"] for c in p.commands) for p in untraced)
        attempted, failed = self.attempted_failed()
        metrics["cli.failed_ops_pct"] = 100.0 * failed / attempted
        for name in PER_LAYER:
            if name in metrics or name.startswith(("trace.", "host.")):
                continue
            if name.endswith("_s") and not name.endswith(".self_s"):
                metrics[name] = med("span." + name[:-2])
            else:
                metrics[name] = med(name)
        metrics["textmetrics.lcs_identical_pct"] = ratio(
            med("textmetrics.lcs_identical"), med("textmetrics.lcs_calls"), 100.0)
        metrics["solidity.lex_repeat_ratio"] = ratio(
            med("solidity.tokenize_calls"), med("solidity.distinct_lexed"))
        metrics["fingerprint.verified_pct"] = ratio(
            med("fingerprint.candidates_kept"), med("fingerprint.candidates_proposed"), 100.0)
        metrics["evaluation.retrievals_per_query"] = ratio(
            med("fingerprint.retrievals"), med("evaluation.queries"))
        metrics["lifecycle.stats_failures"] = med("lifecycle.stats.errors")
        metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                       - statistics.median(p.wall_s for p in untraced))
        metrics["host.probe_ms"] = probe_ms
        return metrics


def summary_lines(run: Run, metrics: dict[str, float]) -> list[str]:
    attempted, failed = run.attempted_failed()
    timed = [p for p in run.passes if p.kind in ("timed", "untraced")]
    traced = len(run.passes) - len(timed)
    lines = [f"workload {run.workload} seed {run.seed}: {len(timed)} untraced and {traced} traced "
             f"passes, {len(run.setup_samples)} setup samples"]
    if not run.trace:
        lines += [
            f"  pass_s       median {metrics['pass_s']:.4f} s over {len(timed)} passes "
            f"(too few samples for a percentile above the median); "
            f"raw wall median {statistics.median(p.wall_s for p in timed):.4f} s",
            f"  setup_s      median {metrics['setup_s']:.4f} s over {len(run.setup_samples)} "
            f"fresh interpreters; raw median {statistics.median(run.setup_samples):.4f} s",
            f"  reference    median {statistics.median(run.reference_samples):.4f} s "
            f"(nominal {REFERENCE_NOMINAL_S} s; pass_s and setup_s are scaled to it)",
            f"  peak_rss_mb  median {metrics['peak_rss_mb']:.1f} MiB over {len(timed)} passes",
            f"  ok_ops_pct   {metrics['ok_ops_pct']:.2f} % "
            f"(failed_ops_pct {100.0 * failed / attempted:.2f} %: {failed} of {attempted} commands)",
        ]
    else:
        lines.append(f"  trace overhead {metrics['trace.overhead_s']:+.4f} s per pass "
                     f"(median traced pass minus median untraced pass)")
    for name, entry in sorted(run.checks.items()):
        state = "ok" if not entry["failed"] else "FAILED"
        lines.append(f"  check {name}: {state} ({entry['passed']} passed, {entry['failed']} failed)")
        lines.extend(f"    {d}" for d in entry["details"][:3])
    crashed = next((c for p in run.passes for c in p.commands
                    if c["failed"] and not c["failed_checks"]), None)
    if crashed is not None:
        last = crashed["stderr_tail"].strip().splitlines()[-1:] or [""]
        lines.append(f"  command {crashed['label']} failed (exit {crashed['exit']}): {last[0]}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="proxylineage CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "proxylineage" / "cli.py").is_file():
        print(f"error: no proxylineage sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True)
    try:
        # Untimed: fails early when the program does not import, and compiles
        # the bytecode every later invocation finds compiled.
        run.setup_sample()
        run.setup_samples.clear()
        run.generate()
        probe_before = host_probe_ms()
        run.measure()
        probe_after = host_probe_ms()
        run.final_checks()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    probe = (probe_before + probe_after) / 2
    values = run.per_layer(probe) if run.trace else run.end_to_end()
    units = PER_LAYER if run.trace else END_TO_END
    attempted, failed = run.attempted_failed()
    correct = all(entry["failed"] == 0 for entry in run.checks.values())
    record = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.trace), "python": platform.python_version(),
        "cpus": os.cpu_count(), "fixtures": run.fixtures,
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "setup_samples_s": run.setup_samples, "reference_samples_s": run.reference_samples,
        "checks": run.checks,
        "passes": [vars(p) for p in run.passes], "metrics": values,
        "correct": correct, "attempted": attempted, "failed": failed,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{run.workload}-seed{run.seed}-trace{int(run.trace)}-{time.time_ns()}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for line in summary_lines(run, values):
        print(line)
    print(f"  host probe: {probe_before:.1f} ms before, {probe_after:.1f} ms after")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
