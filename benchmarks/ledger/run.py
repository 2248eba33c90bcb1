"""The performance ledger: one command from XML bytes to a float.

Run from the repository root::

    python3 benchmarks/ledger/run.py --seed 1                   # every workload
    python3 benchmarks/ledger/run.py --workload optimizer --seed 1
    python3 benchmarks/ledger/run.py --seed 1 --trace           # per-layer metrics

For each workload a generator subprocess writes the inputs for the seed
into a temporary directory under ``.ledger/``; then a fresh measuring
subprocess reads only those files and times a fixed number of calls
into the public ``repro`` API (see ``workloads.py``).  Without
``--trace`` the command reports the end-to-end metrics of
``BENCHMARK.json``; with it, the per-layer metrics: the fixed loop is
split between an untraced and a traced half, whose ratio is the tracing
overhead, and the traced half writes a Chrome trace and a self-time
table to ``.ledger/``.

Output: ``workload metric value unit`` for every metric, notes starting
with ``#``, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status: 0
when every output check passed, 1 when one failed, 2 when the checkout
has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402

WORKLOADS = ("build", "optimizer", "batch", "stream")
#: Seconds one workload's stages may take together, generation included.
#: A stage still running at the end is killed and counted failed.
WORKLOAD_BUDGET = 170.0


class StageError(RuntimeError):
    """A generator or measuring subprocess failed or timed out."""


def stage_env(work: Path) -> dict[str, str]:
    """Environment of the stage subprocesses: this checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # A fixed string-hash seed removes one source of run-to-run timing
    # noise; results are independent of it.  Temporary files stay inside
    # the checkout, and numeric libraries stay single-threaded.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_stage(argv: list[str], env: dict[str, str], deadline: float) -> None:
    """Run one ``workloads.py`` stage; kill its process group at ``deadline``."""
    command = [sys.executable, str(HERE / "workloads.py"), *argv]
    timeout = max(1.0, deadline - time.monotonic())
    with subprocess.Popen(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise StageError(f"{argv[0]} {argv[1]} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        raise StageError(f"{argv[0]} {argv[1]} exited {proc.returncode}:\n{err}")


def measure(
    workload: str,
    inputs: Path,
    traced: bool,
    half: bool,
    env: dict[str, str],
    deadline: float,
    trace_prefix: Path | None = None,
) -> dict[str, Any]:
    out = inputs.parent / ("traced.json" if traced else "plain.json")
    argv = ["measure", workload, str(inputs), str(int(traced)), str(out)]
    if half:
        argv.append("--half")
    if trace_prefix is not None:
        argv += ["--trace-prefix", str(trace_prefix)]
    run_stage(argv, env, deadline)
    result: dict[str, Any] = json.loads(out.read_text(encoding="utf-8"))
    return result


def run_workload(workload: str, seed: int, trace: bool, work: Path) -> dict[str, Any]:
    """Generate, measure and assemble one workload's report."""
    deadline = time.monotonic() + WORKLOAD_BUDGET
    env = stage_env(work)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=work))
    report: dict[str, Any] = {"attempted": 0, "failed": 0, "failures": [], "notes": []}
    try:
        inputs = scratch / "inputs"
        run_stage(["generate", workload, str(seed), str(inputs)], env, deadline)
        report["inputs_sha256"] = ledger.digest_dir(inputs)
        passes = [measure(workload, inputs, False, trace, env, deadline)]
        if trace:
            prefix = work / f"trace-{workload}-seed{seed}"
            passes.append(measure(workload, inputs, True, True, env, deadline, prefix))
            report["notes"].append(f"trace {prefix.with_suffix('.json')}")
            report["notes"].append(f"self-time table {prefix.with_suffix('.txt')}")
    except StageError as exc:
        report["attempted"] += 1
        report["failed"] += 1
        report["failures"].append(str(exc))
        return report
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return assemble(report, passes, trace)


def assemble(
    report: dict[str, Any], passes: list[dict[str, Any]], trace: bool
) -> dict[str, Any]:
    """Fold the measuring passes' results into ``report``.

    ``absent`` lists per-layer metrics whose probe found its function,
    keyword or module gone; ``absent_patches`` lists span patch points
    that are gone.  The first are metric names, the second are notes.
    """
    for result in passes:
        report["attempted"] += result["attempted"]
        report["failed"] += result["failed"]
        report["failures"] += result["failures"]
    plain = passes[0]
    if "metrics" not in plain:
        return report
    report["end_to_end"] = plain["metrics"]
    report["samples"] = plain["samples"]
    report["extra"] = plain["extra"]
    if trace and "per_layer" in passes[1]:
        traced = passes[1]
        per_layer = dict(traced["per_layer"])
        per_layer["trace_overhead"] = (
            traced["metrics"]["op_p50_ms"] / plain["metrics"]["op_p50_ms"]
        )
        report["per_layer"] = per_layer
        report["absent"] = traced["absent"]
        report["absent_patches"] = traced["absent_patches"]
    return report


def metric_values(
    report: dict[str, Any], units: dict[str, str], trace: bool
) -> tuple[dict[str, float], list[str]]:
    """The metrics one workload prints, and why they break the declaration.

    Absent per-layer metrics read 0.  Every printed name must be
    declared in ``units`` and every declared one printed; a problem
    counts as a failed check.
    """
    values = dict(report.get("per_layer" if trace else "end_to_end", {}))
    values.update({name: 0.0 for name in report.get("absent", []) if name not in values})
    problems = ledger.name_problems(values, units) if values else []
    return values, problems


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every input generator (default 1; 2 is held out)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run_seconds of BENCHMARK.json; accepted because the "
                             "benchmark command passes it, refused if different: "
                             "op counts are fixed and sized to it")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full report as JSON here")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT} to measure", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds {args.seconds} is not run_seconds {spec['run_seconds']}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    work = ROOT / ".ledger"
    work.mkdir(exist_ok=True)

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    final: dict[str, tuple[float, str]] = {}
    record: dict[str, Any] = {"seed": args.seed, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        report = run_workload(workload, args.seed, bool(args.trace), work)
        values, problems = metric_values(report, units, bool(args.trace))
        for problem in problems:
            report["failures"].append(problem)
        report["attempted"] += len(problems)
        report["failed"] += len(problems)
        attempted += report["attempted"]
        failed += report["failed"]
        for name, unit in units.items():
            if name in values:
                print(f"{workload} {name} {values[name]!r} {unit}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                final[key] = (values[name], unit)
        print(f"# {workload} inputs_sha256 {report.get('inputs_sha256')}")
        samples = report.get("samples")
        if samples:
            highest = ledger.supported_percentile(samples["ops"])
            rule = f"p{highest:g}" if highest is not None else "none"
            print(f"# {workload} op_tail_ms is p{samples['tail_q']:g} of "
                  f"{samples['ops']} ops ({samples['beyond']} beyond; highest "
                  f"percentile with ten beyond: {rule}); "
                  f"setup_s is the median of {samples['setup_reps']}")
        for key, value in sorted(report.get("extra", {}).items()):
            print(f"# {workload} {key} {value!r}")
        if report.get("absent"):
            print(f"# {workload} absent (reported as 0): {', '.join(report['absent'])}")
        if report.get("absent_patches"):
            print(f"# {workload} absent patches: {'; '.join(report['absent_patches'])}")
        for note in report["notes"]:
            print(f"# {workload} {note}")
        print(f"# {workload} error_rate {report['failed'] / max(1, report['attempted'])!r}")
        for failure in report["failures"]:
            print(f"FAIL {workload}: {failure}", file=sys.stderr)
        record["workloads"][workload] = report
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    sys.stdout.flush()
    correct = failed == 0 and bool(final)
    print(ledger.result_line(correct, max(1, attempted), failed, final))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
