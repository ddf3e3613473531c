#!/usr/bin/env python3
"""Docs gate: validate the machine-readable artifacts and the markdown.

Checks, in order:
  1. Every committed BENCH_*.json carries the unified f3d-bench-v1
     envelope ({"meta": {"schema", "experiment", "host_isa"}, "series":
     ...}) and its own acceptance criteria in series.gates: a non-empty
     list of uniquely named gates {name, value, op, threshold, pass[,
     advisory, note]}. Every pass is recomputed from `value op
     threshold`; a false gate fails the check unless it is advisory and
     carries a non-empty note. The benches state their gates
     (benchutil::Gates in bench/bench_util.hpp), so nothing here knows
     any experiment.
  2. Optionally (--trace FILE) a Chrome trace emitted by F3D_TRACE=1
     matches the f3d-trace-v1 schema: non-empty traceEvents, each event
     a complete ("ph" == "X") event with name/ts/dur/pid/tid, and the
     meta block carrying the schema tag. With --min-coverage, the
     depth-1 spans on the root span's tid must account for at least
     that fraction of the root span's duration.
  3. Optionally (--tunedb FILE) a persisted tuning database matches the
     f3d-tunedb-v1 schema: the schema tag, an entries array, and per
     entry the (mesh_class, host_isa, precision) key plus a config
     object.
  4. Optionally (--knobs FILE, a `tuned_solve -dump-knobs` catalog)
     the catalog and docs/TUNING.md (or --tuning-md FILE) agree both
     ways: each registered knob has a row in the doc's knob tables (the
     tables whose first header cell is `knob`), and each row names a
     registered knob. Adding a knob without documenting it, or deleting
     one and leaving its row, fails CI.
  5. No dead relative links in README.md, DESIGN.md, EXPERIMENTS.md,
     ROADMAP.md, or docs/*.md.

Stdlib only; exits nonzero with one line per problem found.
"""

import argparse
import glob
import json
import operator
import os
import re
import sys

BENCH_SCHEMA = "f3d-bench-v1"
TRACE_SCHEMA = "f3d-trace-v1"
TUNEDB_SCHEMA = "f3d-tunedb-v1"

GATE_OPS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le,
    "<": operator.lt, "==": operator.eq,
}

MARKDOWN_FILES = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")


def check_bench_report(path, errors):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON ({e})")
        return
    meta = doc.get("meta")
    if not isinstance(meta, dict):
        errors.append(f"{path}: missing meta object")
        return
    if meta.get("schema") != BENCH_SCHEMA:
        errors.append(f"{path}: meta.schema is {meta.get('schema')!r}, "
                      f"expected {BENCH_SCHEMA!r}")
    if not isinstance(meta.get("experiment"), str) or not meta["experiment"]:
        errors.append(f"{path}: meta.experiment must be a non-empty string")
    check_host_isa(path, meta, errors)
    if not isinstance(doc.get("series"), dict):
        errors.append(f"{path}: missing series object")
        return
    check_gates(path, doc["series"].get("gates"), errors)


def check_host_isa(path, meta, errors):
    """Every artifact must say what vector hardware produced it: a SIMD
    or precision ratio is not interpretable without the host ISA."""
    isa = meta.get("host_isa")
    if not isinstance(isa, dict):
        errors.append(f"{path}: meta.host_isa missing (regenerate with a "
                      "current bench binary)")
        return
    if not isinstance(isa.get("isa"), str) or not isa["isa"]:
        errors.append(f"{path}: meta.host_isa.isa must be a non-empty string")
    if not isinstance(isa.get("arch"), str) or not isa["arch"]:
        errors.append(f"{path}: meta.host_isa.arch must be a non-empty string")
    if not isinstance(isa.get("double_lanes"), int) or isa["double_lanes"] < 1:
        errors.append(f"{path}: meta.host_isa.double_lanes missing or < 1")
    if not isinstance(isa.get("simd_compiled"), bool):
        errors.append(f"{path}: meta.host_isa.simd_compiled must be a bool")


def is_scalar(v):
    return isinstance(v, (bool, int, float))


def check_gates(path, gates, errors):
    """Recompute every gate the bench wrote: a stale or hand-edited
    artifact cannot pass, and a failed gate passes only as an advisory
    miss that says why."""
    if not isinstance(gates, list) or not gates:
        errors.append(f"{path}: series.gates missing or empty - every "
                      "artifact must state its own gates")
        return
    seen = set()
    for k, gate in enumerate(gates):
        name = gate.get("name") if isinstance(gate, dict) else None
        if not isinstance(name, str) or not name:
            errors.append(f"{path}: gate {k} is not an object with a name")
            continue
        where = f"{path}: gate {name!r}"
        if name in seen:
            errors.append(f"{where} is not unique")
        seen.add(name)
        op = GATE_OPS.get(gate.get("op"))
        value, threshold = gate.get("value"), gate.get("threshold")
        passed = gate.get("pass")
        if op is None or not is_scalar(value) or not is_scalar(threshold) \
                or not isinstance(passed, bool):
            errors.append(f"{where} needs a numeric or bool value and "
                          f"threshold, an op in {sorted(GATE_OPS)} and a "
                          "bool pass")
            continue
        claim = f"{value!r} {gate['op']} {threshold!r}"
        if op(value, threshold) != passed:
            errors.append(f"{where} records pass={passed} but {claim} is "
                          f"{not passed}")
        elif not passed:
            note = gate.get("note")
            if gate.get("advisory") is not True:
                errors.append(f"{where} failed: {claim}")
            elif not isinstance(note, str) or not note:
                errors.append(f"{where} is an advisory miss ({claim}) "
                              "without a note")


def check_tunedb(path, errors):
    """Persisted tuning DB must match the f3d-tunedb-v1 schema the loader
    validates at solver startup."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON ({e})")
        return
    if doc.get("schema") != TUNEDB_SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, expected "
                      f"{TUNEDB_SCHEMA!r}")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errors.append(f"{path}: entries missing or empty")
        return
    for k, e in enumerate(entries):
        if not isinstance(e, dict):
            errors.append(f"{path}: entry {k} not an object")
            continue
        key_obj = e.get("key")
        if not isinstance(key_obj, dict):
            errors.append(f"{path}: entry {k} missing key object")
            key_obj = {}
        for key in ("mesh_class", "host_isa", "precision"):
            if not isinstance(key_obj.get(key), str) or not key_obj[key]:
                errors.append(f"{path}: entry {k} missing key field {key!r}")
        if not isinstance(e.get("config"), dict) or not e["config"]:
            errors.append(f"{path}: entry {k} missing config object")


def knob_table_rows(doc_text):
    """First-column names of the rows of every markdown table whose first
    header cell is `knob`, backticks stripped."""
    rows, in_table = [], False
    for line in doc_text.splitlines():
        if not line.startswith("|"):
            in_table = False
            continue
        first = line.split("|")[1].strip()
        if first == "knob":
            in_table = True
        elif in_table and first.strip("-: "):
            rows.append(first.strip("`"))
    return rows


def check_knob_docs(knobs_path, tuning_md, errors):
    """The tuning doc's knob-table rows and the dumped catalog must name
    the same knobs: an undocumented knob (a mention in prose is not a
    row), or a row left behind by a deleted one, is a docs failure, not
    a silent drift."""
    try:
        with open(knobs_path, encoding="utf-8") as f:
            catalog = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{knobs_path}: unreadable or invalid JSON ({e})")
        return
    if not isinstance(catalog, list) or not catalog:
        errors.append(f"{knobs_path}: knob catalog must be a non-empty array")
        return
    try:
        with open(tuning_md, encoding="utf-8") as f:
            doc_text = f.read()
    except OSError as e:
        errors.append(f"{tuning_md}: cannot read tuning doc ({e})")
        return
    rows = knob_table_rows(doc_text)
    registered = set()
    for k, knob in enumerate(catalog):
        name = knob.get("name") if isinstance(knob, dict) else None
        if not isinstance(name, str) or not name:
            errors.append(f"{knobs_path}: catalog record {k} has no name")
            continue
        registered.add(name)
        if name not in rows:
            errors.append(f"{tuning_md}: registered knob {name!r} has no "
                          "knob-table row (knob catalog cross-check)")
    for name in rows:
        if name not in registered:
            errors.append(f"{tuning_md}: knob table row {name!r} names no "
                          "registered knob (knob catalog cross-check)")


def check_trace(path, min_coverage, errors):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable or invalid JSON ({e})")
        return
    meta = doc.get("meta", {})
    if meta.get("schema") != TRACE_SCHEMA:
        errors.append(f"{path}: meta.schema is {meta.get('schema')!r}, "
                      f"expected {TRACE_SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        errors.append(f"{path}: traceEvents missing or empty")
        return
    for k, e in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in e:
                errors.append(f"{path}: event {k} missing {key!r}")
        if e.get("ph") == "X" and "dur" not in e:
            errors.append(f"{path}: complete event {k} missing 'dur'")
    if min_coverage > 0:
        roots = [e for e in events if e.get("name") == "ptc_solve"]
        if not roots:
            errors.append(f"{path}: no ptc_solve root span for the "
                          "coverage check")
            return
        root = roots[-1]
        covered = sum(
            e.get("dur", 0.0) for e in events
            if e.get("tid") == root.get("tid")
            and e.get("args", {}).get("depth") == 1)
        frac = covered / root["dur"] if root.get("dur") else 0.0
        if frac < min_coverage:
            errors.append(
                f"{path}: depth-1 spans cover {frac:.1%} of the root span, "
                f"need >= {min_coverage:.0%}")


def check_markdown_links(repo_root, errors):
    files = [os.path.join(repo_root, f) for f in MARKDOWN_FILES]
    files += sorted(glob.glob(os.path.join(repo_root, "docs", "*.md")))
    for md in files:
        if not os.path.isfile(md):
            continue
        base = os.path.dirname(md)
        with open(md, encoding="utf-8") as f:
            text = f.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in LINK_RE.finditer(line):
                target = m.group(2)
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target = target.split("#", 1)[0]
                if not target:
                    continue
                resolved = os.path.normpath(os.path.join(base, target))
                if not os.path.exists(resolved):
                    rel = os.path.relpath(md, repo_root)
                    errors.append(f"{rel}:{lineno}: dead link -> {m.group(2)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trace", help="Chrome trace JSON to validate")
    ap.add_argument("--min-coverage", type=float, default=0.0,
                    help="required depth-1 coverage of the ptc_solve root "
                         "span (e.g. 0.9); 0 disables the check")
    ap.add_argument("--tunedb", help="persisted tuning DB (f3d-tunedb-v1) "
                                     "to validate")
    ap.add_argument("--knobs", help="knob catalog JSON (tuned_solve "
                                    "-dump-knobs) to cross-check against "
                                    "the tuning doc")
    ap.add_argument("--tuning-md", default=None,
                    help="tuning doc for the knob cross-check "
                         "(default: <repo>/docs/TUNING.md)")
    ap.add_argument("--repo", default=None,
                    help="repo root (default: parent of this script)")
    args = ap.parse_args()

    repo_root = args.repo or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    errors = []

    bench_files = sorted(glob.glob(os.path.join(repo_root, "BENCH_*.json")))
    if not bench_files:
        errors.append("no committed BENCH_*.json found at the repo root")
    for path in bench_files:
        check_bench_report(path, errors)

    if args.trace:
        check_trace(args.trace, args.min_coverage, errors)

    if args.tunedb:
        check_tunedb(args.tunedb, errors)

    if args.knobs:
        tuning_md = args.tuning_md or os.path.join(repo_root, "docs",
                                                   "TUNING.md")
        check_knob_docs(args.knobs, tuning_md, errors)

    check_markdown_links(repo_root, errors)

    if errors:
        for e in errors:
            print(f"check_docs: {e}", file=sys.stderr)
        return 1
    n_md = len(MARKDOWN_FILES) + len(glob.glob(
        os.path.join(repo_root, "docs", "*.md")))
    print(f"check_docs: OK ({len(bench_files)} bench report(s), "
          f"{'1 trace, ' if args.trace else ''}{n_md} markdown file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
