"""The repository's benchmark: ``python -m bench <command>``.

  python -m bench run --seed 7 --out FILE.json
      Every workload for 5 untraced rounds of 3 passes in rotating order,
      then 3 traced passes each; prints every metric and check, writes
      the JSON.
  python -m bench measure --workload W --seed N --seconds S --trace 0|1
      One workload for about S seconds; the last line of output is one
      JSON object with the end-to-end (--trace 0) or per-layer
      (--trace 1) metrics.
  python -m bench compare A.json B.json
      B against A, one verdict per (workload, end-to-end metric).

Run from the repository root; the program is imported from ``src``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from bench import compare, harness
from bench.workloads import WORKLOADS


def _measure(args) -> int:
    spec = harness.load_spec()
    summary = harness.measure(args.workload, args.seed, args.seconds,
                              bool(args.trace), spec)
    harness.print_summary(args.workload, summary, spec)
    print(f"{args.workload:<15} output {summary['output_sha256']}")
    section = "per_layer" if args.trace else "end_to_end"
    values = summary[section]
    if not all(metric["name"] in values for metric in spec[section]):
        print("error: no successful pass to report; "
              f"{summary['checks']['passes_completed']}", file=sys.stderr)
        return 1
    metrics = {}
    for metric in spec[section]:
        value = values[metric["name"]]
        metrics[metric["name"]] = {
            "value": value["median"] if isinstance(value, dict) else value,
            "unit": metric["unit"],
        }
    print(json.dumps({
        "correct": all(problem is None
                       for problem in summary["checks"].values()),
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


def _run(args) -> int:
    spec = harness.load_spec()
    doc = harness.run_suite(args.seed, list(WORKLOADS), spec)
    for name, summary in doc["workloads"].items():
        harness.print_summary(name, summary, spec)
    env = doc["env"]
    print(f"git {env['git_sha'][:12]}  python {env['python']}  "
          f"nproc {env['nproc']}  seed {env['seed']}  rounds "
          f"{env['rounds']}  reference kernel "
          f"{env['ref_kernel_s'] * 1e3:.2f} ms")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}")
    passed = all(problem is None for summary in doc["workloads"].values()
                 for problem in summary["checks"].values())
    return 0 if passed else 1


def _compare(args) -> int:
    docs = [json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
            for path in (args.a, args.b)]
    rows, failures = compare.compare(docs[0], docs[1], harness.load_spec())
    print(compare.render(docs[0], docs[1], rows, failures))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run every workload; write JSON")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--out", required=True)
    run.set_defaults(handler=_run)
    measure = commands.add_parser("measure", help="one workload, timed")
    measure.add_argument("--workload", required=True,
                         choices=sorted(WORKLOADS))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(handler=_measure)
    comparison = commands.add_parser("compare", help="B against A")
    comparison.add_argument("a")
    comparison.add_argument("b")
    comparison.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except harness.PreflightError as exc:
        print(f"error: cannot run the program from this checkout: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
