"""Compare two result sets (results.jsonl files written by run.py).

For each workload x metric: each side's median and quartiles over its runs,
the ratio of medians (B / A), the pair record and a verdict. Runs pair by
(workload, trace, seed). B is `better` when it wins at least nine tenths of
the pairs (ties count for neither) and the medians differ by more than A's
own spread, the distance between its quartiles; `worse` by the same rule
with the sides swapped; otherwise `unresolved`. For end-to-end metrics the
last column says whether B's median is worse than A's by more than the
metric's bound.
"""

from __future__ import annotations

import json
import statistics

ENV_KEYS = ("git_rev", "src_sha256", "python", "numpy", "blas", "nproc")


def _load(path) -> tuple[dict, set]:
    """(workload, trace) -> {seed: metrics}, where a later run of a seed wins,
    plus the distinct environments the runs recorded."""
    runs: dict = {}
    envs = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                metrics = {k: v["value"] for k, v in rec["metrics"].items()}
                runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
                env = rec["env"]
                envs.add(" ".join(f"{k}={env[k]}" for k in ENV_KEYS))
    return runs, envs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list, b: list, pairs: list, lower_is_better: bool) -> tuple[str, int]:
    """(better | worse | unresolved, number of pairs B wins)."""
    q1, med_a, q3 = _quartiles(a)
    med_b = _quartiles(b)[1]
    sign = -1.0 if lower_is_better else 1.0
    b_wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    resolved = bool(pairs) and abs(med_b - med_a) > q3 - q1
    if resolved and b_wins >= 0.9 * len(pairs):
        return "better", b_wins
    if resolved and a_wins >= 0.9 * len(pairs):
        return "worse", b_wins
    return "unresolved", b_wins


def main(path_a, path_b, spec: dict) -> int:
    (runs_a, envs_a), (runs_b, envs_b) = _load(path_a), _load(path_b)
    specs = [(0, m) for m in spec["end_to_end"]] + [(1, m) for m in spec["per_layer"]]
    for label, path, envs in (("A", path_a, envs_a), ("B", path_b, envs_b)):
        print(f"{label} = {path}")
        for env in sorted(envs):
            print(f"    {env}")
    print(
        f"{'workload':<16} {'metric':<44} {'n':>5} {'A median':>12} {'A q1..q3':>23} "
        f"{'B median':>12} {'B q1..q3':>23} {'B/A':>7} {'B wins':>7} {'verdict':>10} {'bound':>6}"
    )
    for workload in sorted({w for w, _ in runs_a} & {w for w, _ in runs_b}):
        for trace, m in specs:
            side_a, side_b = runs_a.get((workload, trace), {}), runs_b.get((workload, trace), {})
            name = m["name"]
            a = [r[name] for r in side_a.values() if name in r]
            b = [r[name] for r in side_b.values() if name in r]
            if not a or not b:
                continue
            seeds = sorted(set(side_a) & set(side_b))
            pairs = [(side_a[s][name], side_b[s][name]) for s in seeds]
            lower = m["better"] == "lower"
            qa, qb = _quartiles(a), _quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            result, wins = verdict(a, b, pairs, lower)
            bound = ""
            if "bound" in m and qa[1]:
                worse_by = (qb[1] - qa[1]) / qa[1] * (1 if lower else -1)
                bound = "over" if worse_by > m["bound"] else "ok"
            print(
                f"{workload:<16} {name:<44} {len(a):>2}/{len(b):<2} {qa[1]:>12.5g} "
                f"{qa[0]:>11.5g}..{qa[2]:<10.5g} {qb[1]:>12.5g} {qb[0]:>11.5g}..{qb[2]:<10.5g} "
                f"{ratio:>7.3f} {wins:>3}/{len(pairs):<3} {result:>10} {bound:>6}"
            )
    return 0
