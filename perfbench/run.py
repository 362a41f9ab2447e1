"""hyperpoly benchmark: one workload, timed per question at its fastest over passes.

    python3 perfbench/run.py --workload {sign,tropical,cli} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The load is a closed loop with
one client: one question at a time from one process, with at most one
child process alive.  A run is a whole number of passes over the
workload's seeded question list, at least three and as many as start
within S seconds.  Every pass is a fresh interpreter, so nothing the
library caches outlives a pass:

* ``sign`` and ``tropical``: one worker process asks every question
  once, each timed on its own process CPU clock;
* ``cli``: every question is its own ``python -m hyperpoly`` process,
  timed on the wall clock from spawn to exit.

A question's time is its minimum over the passes: other load on the
machine only ever adds time, often for seconds at a stretch, so the
fastest pass is the steadiest estimate of what the question costs.
Answers are checked by the independent checkers in ``checks.py`` after
each pass, and must be byte-identical across passes.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics, or with ``--trace 1`` the per-layer ones, whose full
set is also written to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import workloads
from tracer import SPANS, TWO_FACTOR

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
PROBE_REPEATS = 5           # spawns each for cli.interpreter_ms and cli.import_ms
# self times printed in the traced result: the spans every workload reaches
PRINTED_SELF_MS = ("polynomials.Polynomial.__post_init__", "polynomials._product_rows",
                   "polynomials.in_product", "polynomials._chain_member",
                   "parsing.parse_polynomial")


def per_layer_names() -> list:
    return (["traced.tasks_per_s"] + [f"{s}.calls" for s in SPANS] + [f"{TWO_FACTOR}.calls"]
            + [f"{s}.self_ms" for s in PRINTED_SELF_MS]
            + ["cli.interpreter_ms", "cli.import_ms", "cli.run_ms"])


END_TO_END_UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
                   "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    return "1/s" if name.endswith("_per_s") else "ms"


# ---------------------------------------------------------------------------
# children


class Children:
    """Spawns this run's children, one at a time, with a fixed hash seed
    and bytecode cached in a directory the run owns."""

    def __init__(self, root: Path, run_dir: Path):
        base = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        base.update(PYTHONHASHSEED="0", PYTHONPYCACHEPREFIX=str(run_dir / "pycache"))
        self.cli_env = dict(base, PYTHONPATH=str(root / "src"))
        self.bench_env = dict(base, PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))

    def spawn(self, args, cwd: Path, env=None, stdout: Path | None = None):
        """Run ``python args...`` to its end: (exit code, wall seconds, peak RSS in KiB)."""
        out = open(stdout, "wb") if stdout else subprocess.DEVNULL
        err = open(cwd / "stderr.txt", "wb")
        try:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, stdout=out, stderr=err,
                                    env=env or self.bench_env)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        finally:
            if stdout:
                out.close()
            err.close()
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(f"child {args[:3]} exited {code}: "
                             f"{(cwd / 'stderr.txt').read_text(errors='replace')[-2000:]}\n")
        return code, wall, usage.ru_maxrss

    def worker(self, pass_dir: Path, mode: str, trace: bool):
        """A worker pass; (result dict or None, peak RSS in KiB)."""
        code, _, rss = self.spawn(["-m", "worker", str(pass_dir), mode, "1" if trace else "0"],
                                  pass_dir)
        if code != 0:
            return None, rss
        return json.loads((pass_dir / "result.json").read_text()), rss


def write_inputs(pass_dir: Path, w: workloads.Workload) -> None:
    lines = ["\t".join(entry) for entry in w.inputs]
    (pass_dir / "inputs.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# passes


class Tally:
    """Per-question times and answer checks over a run's passes."""

    def __init__(self, w: workloads.Workload, check: bool = True):
        self.w = w
        self.check = check
        self.times = [[] for _ in w.questions]   # seconds, one per pass
        self.first = [None] * len(w.questions)   # first answer text, checked once
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.setup_s = []
        self.rss_kib = []
        self.traces = []

    def record(self, k: int, seconds: float, answer, check) -> None:
        """One attempt at question k; ``answer`` is None when it failed."""
        self.attempted += 1
        if answer is None:
            self.failed += 1
            return
        self.times[k].append(seconds)
        text = json.dumps(answer, sort_keys=True)
        if self.first[k] is None:
            self.first[k] = text
            if not self.check:
                return
            try:
                ok = check(self.w.expect[k], answer)
            except Exception as exc:   # a checker that cannot read the answer rejects it
                sys.stderr.write(f"checker raised on question {k}: {exc!r}\n")
                ok = False
            if not ok:
                self.wrong.append(k)
        elif text != self.first[k]:
            self.wrong.append(k)

    def fail_pass(self) -> None:
        self.attempted += len(self.w.questions)
        self.failed += len(self.w.questions)

    def question_ms(self) -> list:
        """Each answered question's time: its fastest pass, in ms."""
        return [1000 * min(ts) for ts in self.times if ts]


def inprocess_pass(ch: Children, pass_dir: Path, tally: Tally, trace: bool) -> None:
    result, rss = ch.worker(pass_dir, "questions", trace)
    tally.rss_kib.append(rss)
    if result is None:
        tally.fail_pass()
        return
    tally.setup_s.append(result["setup_s"])
    if trace:
        tally.traces.append(result["trace"])
    for k, (ns, answer, error) in enumerate(zip(result["times_ns"], result["answers"],
                                                result["errors"])):
        if error:
            sys.stderr.write(f"question {k} {tally.w.questions[k]} failed: {error}\n")
        tally.record(k, ns / 1e9, None if error else answer, checks.check_answer)


def cli_pass(ch: Children, pass_dir: Path, tally: Tally, trace: bool) -> None:
    result, _ = ch.worker(pass_dir, "setup", False)
    if result is None:
        tally.fail_pass()
        return
    tally.setup_s.append(result["setup_s"])
    pass_trace = {}
    out = pass_dir / "stdout.txt"
    svg = pass_dir / "newton.svg"
    trace_file = pass_dir / "trace.json"
    for k, q in enumerate(tally.w.questions):
        argv = [a.replace("{svg}", str(svg)) for a in q["args"]]
        if trace:
            code, wall, rss = ch.spawn(["-m", "cli_child", str(trace_file), *argv], pass_dir,
                                       stdout=out)
        else:
            code, wall, rss = ch.spawn(["-m", "hyperpoly", *argv], pass_dir, env=ch.cli_env,
                                       stdout=out)
        tally.rss_kib.append(rss)
        svg_text = svg.read_text(encoding="utf-8") if svg.exists() else None
        svg.unlink(missing_ok=True)
        if trace and code == 0:
            for name, value in json.loads(trace_file.read_text()).items():
                pass_trace[name] = pass_trace.get(name, 0) + value
        answer = [out.read_text(encoding="utf-8"), svg_text] if code == 0 else None
        tally.record(k, wall, answer, lambda e, a: checks.check_cli(e, *a))
    if trace:
        tally.traces.append(pass_trace)


def cli_layers(ch: Children, seed: int, work_dir: Path) -> dict:
    """cli.interpreter_ms, cli.import_ms and cli.run_ms: a bare interpreter,
    importing hyperpoly.cli, and the in-process cli.run on the cli
    workload's argv lists for the same seed."""
    w = workloads.build("cli", seed)
    write_inputs(work_dir, w)
    svg = work_dir / "newton.svg"
    argvs = [[a.replace("{svg}", str(svg)) for a in q["args"]] for q in w.questions]
    (work_dir / "argv.json").write_text(json.dumps(argvs))
    probes = {}
    for name, code in (("cli.interpreter_ms", "pass"), ("cli.import_ms", "import hyperpoly.cli")):
        walls = [ch.spawn(["-c", code], work_dir, env=ch.cli_env)[1] for _ in range(PROBE_REPEATS)]
        probes[name] = 1000 * min(walls)
    per_argv = [[] for _ in argvs]
    for _ in range(MIN_PASSES):
        result, _ = ch.worker(work_dir, "cli", False)
        if result is None:
            raise SystemExit("the in-process cli.run probe failed")
        for k, ns in enumerate(result["times_ns"]):
            per_argv[k].append(ns / 1e6)
    probes["cli.run_ms"] = statistics.median(min(ts) for ts in per_argv)
    return probes


# ---------------------------------------------------------------------------
# metrics


def end_to_end(tally: Tally, pct: int) -> dict:
    ms = sorted(tally.question_ms())
    rank = -(-pct * len(ms) // 100)   # nearest rank
    return {
        "tasks_per_s": len(ms) / (sum(ms) / 1000),
        "task_p50_ms": statistics.median(ms),
        "task_tail_ms": ms[rank - 1],
        "peak_rss_mb": max(tally.rss_kib) / 1024,
        "setup_s": statistics.median(tally.setup_s),
    }


def kind_shares(tally: Tally) -> dict:
    """Each question kind's share of the summed per-question times."""
    totals = {}
    for e, ts in zip(tally.w.expect, tally.times):
        if ts:
            kind = e.get("form", e["kind"])
            totals[kind] = totals.get(kind, 0.0) + min(ts)
    whole = sum(totals.values())
    return {kind: t / whole for kind, t in sorted(totals.items())}


def per_layer(tally: Tally, probes: dict) -> dict:
    first = tally.traces[0]
    for other in tally.traces[1:]:
        if any(other[k] != v for k, v in first.items() if k.endswith(".calls")):
            sys.stderr.write("warning: call counts differ between traced passes\n")
    out = {k: v for k, v in first.items() if k.endswith(".calls")}
    for k in first:
        if k.endswith(".self_ms"):
            out[k] = statistics.median(t[k] for t in tally.traces)
    ms = tally.question_ms()
    out["traced.tasks_per_s"] = len(ms) / (sum(ms) / 1000)
    out.update(probes)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sign", "tropical", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    root = Path.cwd()
    if not (root / "src" / "hyperpoly" / "__init__.py").is_file():
        sys.stderr.write("error: run from the root of a hyperpoly checkout (no src/hyperpoly)\n")
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=out_dir))
    try:
        return _run(args, trace, root, out_dir, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, trace, root, out_dir, run_dir) -> int:
    ch = Children(root, run_dir)
    w = workloads.build(args.workload, args.seed)
    pass_dir = run_dir / "pass"
    pass_dir.mkdir()
    write_inputs(pass_dir, w)
    run_pass = cli_pass if args.workload == "cli" else inprocess_pass
    if args.workload != "cli":
        (pass_dir / "questions.json").write_text(json.dumps(w.questions))

    # one untimed, unchecked pass fills the bytecode cache
    run_pass(ch, pass_dir, Tally(w, check=False), trace)

    tally = Tally(w)
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() < deadline:
        run_pass(ch, pass_dir, tally, trace)
        passes += 1

    pct = workloads.tail_percentile(len(w.questions))
    summary = {"workload": args.workload, "seed": args.seed, "passes": passes,
               "questions": len(w.questions), "tail_percentile": pct,
               "kind_shares": kind_shares(tally)}
    if trace:
        probe_dir = run_dir / "probe"
        probe_dir.mkdir()
        metrics = per_layer(tally, cli_layers(ch, args.seed, probe_dir))
        summary["per_layer"] = metrics
        names = per_layer_names()
        # beside the traced throughput: the untraced one of the same
        # workload and seed, when a run in this checkout measured it
        untraced = out_dir / f"run-{args.workload}-seed{args.seed}.json"
        if untraced.exists():
            summary["untraced_tasks_per_s"] = \
                json.loads(untraced.read_text())["end_to_end"]["tasks_per_s"]
        sys.stderr.write(f"tasks_per_s traced {metrics['traced.tasks_per_s']:.2f}, "
                         f"untraced {summary.get('untraced_tasks_per_s', 'not measured')}\n")
    else:
        metrics = end_to_end(tally, pct)
        summary["end_to_end"] = metrics
        names = list(metrics)
    name = f"{'trace' if trace else 'run'}-{args.workload}-seed{args.seed}.json"
    (out_dir / name).write_text(json.dumps(summary, indent=2) + "\n")
    for k in tally.wrong:
        sys.stderr.write(f"wrong answer to question {k}: {w.questions[k]}\n")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
