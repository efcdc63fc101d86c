"""``python -m bench compare A.json B.json``: B's verdict against A.

One row per (workload, end-to-end metric), with each side's median and
quartiles, the relative change, and one verdict:

* ``worse``: B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``better``: B's median is better by more than A's quartile spread and
  B wins at least nine tenths of all (A run, B run) pairings;
* ``within bound``: neither;
* ``unresolved``: A's own quartile spread is wider than the bound, so a
  change the size of the bound cannot be told from noise, unless every
  B run beats every A run (``better``) or every A run beats every B run
  by more than the bound (``worse``);
* ``unresolved (drift)``: the reference kernel's median moved by more
  than :data:`DRIFT_LIMIT` between the two sets.  Host times are
  rescaled by the kernel (:mod:`bench.reference`), but a host that ran
  at a different speed is not trusted to judge a bound of that size,
  so no host-time metric is judged.

A changed output digest is a failure on its own: a speed-up only counts
when every output stays byte-identical.  The exit status is 1 on any
``worse`` verdict, digest change, or workload missing from B.
"""

from __future__ import annotations

from bench.reference import host_timed
from bench.stats import spread

#: Largest relative change of the reference kernel's median between two
#: sets for which host-time metrics are still compared.
DRIFT_LIMIT = 0.10

#: Share of (A run, B run) pairings B must win before ``better``.
WIN_SHARE = 0.9


def verdict(a: dict, b: dict, better: str, bound: float,
            drift: bool = False) -> str:
    """B's verdict against A for one metric (see the module doc).

    ``a`` and ``b`` are :func:`bench.stats.describe` summaries; ``better``
    is ``"lower"`` or ``"higher"``; ``bound`` is a share of A's median.
    """
    if drift:
        return "unresolved (drift)"

    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    worsening = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worsening = -worsening
    pairs = [(av, bv) for av in a["values"] for bv in b["values"]]
    b_wins = sum(beats(bv, av) for av, bv in pairs)
    a_wins = sum(beats(av, bv) for av, bv in pairs)
    if spread(a) > bound:
        if b_wins == len(pairs):
            return "better"
        if a_wins == len(pairs) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > spread(a) and b_wins >= WIN_SHARE * len(pairs):
        return "better"
    return "within bound"


def compare(a_doc: dict, b_doc: dict, spec: dict) -> tuple[list[dict],
                                                          list[str]]:
    """``(rows, failures)`` for two ``bench run`` documents."""
    kernel_a = a_doc["env"]["ref_kernel_s"]
    kernel_b = b_doc["env"]["ref_kernel_s"]
    drifted = abs(kernel_b - kernel_a) / kernel_a > DRIFT_LIMIT
    rows: list[dict] = []
    failures: list[str] = []
    for workload, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(workload)
        if b is None:
            failures.append(f"{workload}: missing from B")
            continue
        if a["output_sha256"] != b["output_sha256"]:
            failures.append(f"{workload}: output digest changed")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            sa, sb = a["end_to_end"][name], b["end_to_end"][name]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": sa,
                "b": sb,
                "delta": (sb["median"] - sa["median"]) / sa["median"],
                "verdict": verdict(sa, sb, metric["better"], metric["bound"],
                                   drifted and host_timed(metric["unit"])),
            })
    failures.extend(f"{row['workload']} {row['metric']}: worse"
                    for row in rows if row["verdict"] == "worse")
    return rows, failures


def render(a_doc: dict, b_doc: dict, rows: list[dict],
           failures: list[str]) -> str:
    """The comparison as text: header, one row per metric, footer."""
    env_a, env_b = a_doc["env"], b_doc["env"]
    kernel_a, kernel_b = env_a["ref_kernel_s"], env_b["ref_kernel_s"]
    lines = [
        f"A: {env_a['git_sha'][:12]} seed {env_a['seed']} "
        f"rounds {env_a['rounds']}   "
        f"B: {env_b['git_sha'][:12]} seed {env_b['seed']} "
        f"rounds {env_b['rounds']}",
        f"reference kernel: A {kernel_a * 1e3:.2f} ms, "
        f"B {kernel_b * 1e3:.2f} ms "
        f"({(kernel_b - kernel_a) / kernel_a:+.1%}; drift limit "
        f"{DRIFT_LIMIT:.0%})",
        "",
        f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'delta':>8}  verdict",
    ]
    for row in rows:
        a, b = row["a"], row["b"]
        lines.append(
            f"{row['workload']:<15} {row['metric']:<12} "
            f"{_cell(a, row['unit']):<30} {_cell(b, row['unit']):<30} "
            f"{row['delta']:>+8.1%}  {row['verdict']}")
    lines.append("")
    for workload, a in a_doc["workloads"].items():
        b = b_doc["workloads"].get(workload)
        if b is not None:
            same = a["output_sha256"] == b["output_sha256"]
            lines.append(f"{workload:<15} output digest "
                         f"{'identical' if same else 'CHANGED'}")
    lines.extend(f"FAIL {failure}" for failure in failures)
    return "\n".join(lines)


def _cell(summary: dict, unit: str) -> str:
    return (f"{summary['median']:.4g} [{summary['q1']:.4g}, "
            f"{summary['q3']:.4g}] {unit}")
