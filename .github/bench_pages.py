#!/usr/bin/env python3
"""The repo benchmark's page trajectory: BENCH_e2e.json.

Pages are exact and do not depend on run length, so the committed file's
page counts gate every run; its timings are a record, read with the pace
lines of the run they came from, and are never compared.

    bench_pages.py check BENCH_e2e.json RUN.jsonl
        Exit 1 unless RUN.jsonl (untraced `--out` lines, seed 1993) holds
        every judged workload and each line reports exactly the committed
        ssf_/bssf_/nix_pages_per_query.

    bench_pages.py record BENCH_e2e.json RUN.jsonl RUN.stdout SECONDS
        Write the file from one untraced `--out` line per judged workload
        and the stdout of the same runs, whose pace lines are kept beside
        each line.
"""

import json
import os
import re
import sys

WORKLOADS = ("superset_dt10", "subset_dt10", "mixed_rw_pool")
PAGES = tuple(f"{f}_pages_per_query" for f in ("ssf", "bssf", "nix"))


def result_lines(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def check(committed, run):
    with open(committed, encoding="utf-8") as f:
        want = {r["workload"]: r["result"]["metrics"] for r in json.load(f)["runs"]}
    got = result_lines(run)
    bad = [f"{w}: no run in {run}" for w in WORKLOADS if w not in {r["workload"] for r in got}]
    for r in got:
        w = r["workload"]
        if (r["seed"], r["trace"]) != (1993, 0):
            bad.append(f"{w}: seed {r['seed']} trace {r['trace']}, not seed 1993 untraced")
        for k in PAGES:
            a, b = want[w][k]["value"], r["metrics"][k]["value"]
            if a != b:
                bad.append(f"{w} {k}: committed {a!r}, measured {b!r}")
    for line in bad:
        print(line)
    if bad:
        print(f"{run} does not match {committed}; regenerate the file if a change meant to move pages")
        return 1
    print(f"{len(got)} runs: every page count equals {committed}")
    return 0


def host():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        model = "unknown CPU"
    return f"{model}, {os.cpu_count()} logical CPUs"


def record(committed, run, stdout, seconds):
    with open(stdout, encoding="utf-8") as f:
        blocks = re.split(r"^== (\S+) \(end to end\) ==$", f.read(), flags=re.M)
    pace = {
        blocks[i]: [
            line.strip()
            for line in blocks[i + 1].splitlines()
            if re.match(r"\s*# (ssf|bssf|nix): .* pace ", line)
        ]
        for i in range(1, len(blocks), 2)
    }
    runs = {r["workload"]: r for r in result_lines(run)}
    doc = {
        "about": "Untraced repo-benchmark result lines at seed 1993, one per judged "
        "workload. CI re-runs each for 5 s and requires every "
        "*_pages_per_query to equal these exactly (.github/bench_pages.py); "
        "timings are recorded with their run's pace lines and not compared.",
        "command": "cargo run --release --offline --quiet --manifest-path "
        f"benchmark/Cargo.toml -- --workload <w> --seed 1993 --seconds {seconds} "
        "--trace 0 --out <file>",
        "host": host(),
        "runs": [{"workload": w, "pace": pace[w], "result": runs[w]} for w in WORKLOADS],
    }
    with open(committed, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, ensure_ascii=False)
        f.write("\n")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "check":
        sys.exit(check(*args[1:]))
    if len(args) == 5 and args[0] == "record":
        sys.exit(record(*args[1:]))
    sys.exit(__doc__)
