"""Time-to-certified-policy benchmark for scalarplan.

Run from the repository root:

    python3 perfbench/run.py --workload tireworld --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: each call starts when the previous one
returns.  A run repeats whole rounds until ``--seconds`` have passed.  A
round loads the workload's model documents for at least half a second (the
median load is ``setup_s``), runs ``oracle_solve`` (the exact
occupation-measure LP) on every instance where the workload times it,
``solve_cssp`` at its defaults on every instance, and, on tireworld, one
``scalarplan solve`` process.  The LP and the CLI skip rounds once their
time passes a third of the solves' time.  Every answer is checked against the LP:
primary cost within ``10 * epsilon + 1e-5``, the policy's evaluated cost
within the bounds, and a flow residual at most 1e-6.  Where the LP is not
timed, its answers are solved once, in a child process (exact_lp.py), and
cached by document under ``perfbench/.work/``.

``--trace 1`` instead wraps the program's public functions (see spans.py),
runs every solve once untraced and once traced, and reports per-layer
figures plus the tracing overhead.  The last line of standard output is the
JSON result; a fuller record, with the input fingerprint, goes to
``perfbench/results/``, and ``perfbench/compare.py`` compares such records.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"

EPSILON = 1e-4                 # solve_cssp's default, which every solve uses
COST_TOL = 10 * EPSILON + 1e-5
FLOW_TOL = 1e-6
SETUP_SLOT_S = 0.5     # per round, load the documents for at least this long
CLI_TIMEOUT_S = 170
EXACT_LP_TIMEOUT_S = 120   # three 1000-state LPs took about 25 s
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Cap every BLAS pool at the cores this process may run on."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def machine_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work.

    It runs no program code, so it follows only the machine's speed, which
    on a shared 2-core machine swung by up to 1.7x within minutes.  Runs
    whose probes differ were made on a faster or slower machine.
    """
    import numpy as np
    start = time.perf_counter()
    counts = {}
    for i in range(300_000):
        counts[i % 1009] = counts.get(i % 1009, 0) + 1
    a = np.arange(3600.0).reshape(60, 60) / 3600.0
    for _ in range(1500):
        a = a - 1e-4 * np.outer(a[:, 0], a[0])
    return time.perf_counter() - start


def load(inst):
    """Model of one instance, through the module attributes tracing wraps."""
    from scalarplan import model
    m = model.load_model(inst.text)
    if inst.penalty is not None:
        m = model.finite_penalty_transform(m, inst.penalty)
    return m


def check_policy(model, policy, primary, ref):
    """Acceptance criterion 5: LP-optimal cost, feasible, flow-conserving.

    Returns None when the answer passes, else the reason it fails.
    """
    from scalarplan import extract, model as model_mod
    if ref is None:
        return "no exact LP reference: the oracle failed on this instance"
    if abs(primary - ref) > COST_TOL:
        return f"primary cost {primary!r} vs exact LP {ref!r}"
    try:
        cost = model_mod.evaluate_policy(model, policy)
        if not model_mod.feasibility_check(model, cost):
            return f"policy cost {list(cost)} breaks bounds {list(model.bounds)}"
        residual = extract.flow_residual(model, extract.occupation_measure_of(model, policy))
    except Exception as exc:
        return f"policy does not evaluate: {_describe(exc)}"
    if residual > FLOW_TOL:
        return f"flow residual {residual}"
    return None


def exact_primary(inst) -> float:
    """Checked primary cost of the exact LP optimum of one instance."""
    from scalarplan import solver
    model = load(inst)
    result = solver.oracle_solve(model)
    primary = float(result.cost[0])
    reason = check_policy(model, result.policy, primary, primary)
    if reason is not None:
        raise RuntimeError(f"exact LP answer for {inst.name} fails its check: {reason}")
    return primary


class Bench:
    def __init__(self, work, seconds: float, tracer=None):
        from scalarplan import solver
        self.solver_mod = solver
        self.work = work
        self.seconds = seconds
        self.tracer = tracer
        self.setup_s = []
        self.solve_s = []
        self.traced_solve_s = []
        self.oracle_s = []
        self.cli_s = []
        self.reference = {}     # instance name -> exact optimal primary cost
        self.attempted = 0
        self.failures = []      # (instance, operation, reason)
        self.wrong = 0          # answers that came back but failed a check
        self.rounds = 0
        self.probe_s = []       # machine_probe() once per round

    def _fail(self, inst, op, reason, wrong=False):
        self.failures.append((inst.name, op, reason))
        if wrong:
            self.wrong += 1

    @contextmanager
    def _span(self, kind: str, instance: str):
        """A root span with the wrappers installed, or nothing when untraced."""
        if self.tracer is None:
            yield {}
            return
        with self.tracer.installed(), self.tracer.root(kind, instance) as attrs:
            yield attrs

    # -- phases --

    def _setup_once(self):
        with self._span("setup", "*"):
            start = time.perf_counter()
            for inst in self.work.instances:
                load(inst)
            self.setup_s.append(time.perf_counter() - start)

    def measure(self, workdir: Path):
        """Repeat whole rounds, so every instance weighs the same, until the window ends."""
        if not self.work.oracle:
            self.reference = self._cached_references()
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < self.seconds:
            # garbage left by the last round would otherwise raise the next
            # round's peak memory, depending on when the collector last ran
            gc.collect()
            _repeat_for(SETUP_SLOT_S, self._setup_once)
            # the LP and the CLI are reported but not declared, so they may
            # not crowd out the solves: they skip rounds beyond a third of them
            extra_due = sum(self.oracle_s) + sum(self.cli_s) <= sum(self.solve_s) / 3
            if self.work.oracle and extra_due:
                for inst in self.work.instances:
                    self._oracle(inst)
            for inst in self.work.instances:
                if self.tracer is None:
                    self._solve(inst, traced=False)
                else:
                    # untraced and traced twins, alternating which goes first
                    first = self.rounds % 2 == 0
                    self._solve(inst, traced=not first)
                    self._solve(inst, traced=first)
            if self.work.cli and extra_due and self.tracer is None:
                self._cli(self.work.instances[0], workdir)
            self.probe_s.append(machine_probe())
            self.rounds += 1

    def _cached_references(self) -> dict:
        """Exact LP answers by instance, solved once per document and kept in .work/.

        Relabelling permutes state ids only, so the answer for the document
        before relabelling holds for every seed.
        """
        path = WORK / "references.json"
        cache = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        missing = [inst for inst in self.work.instances if inst.base_sha256 not in cache]
        if missing:
            for inst, primary in zip(missing, _exact_primaries_in_child(missing)):
                cache[inst.base_sha256] = primary
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(cache, indent=1) + "\n", encoding="utf-8")
            tmp.replace(path)
        return {inst.name: cache[inst.base_sha256] for inst in self.work.instances}

    def _oracle(self, inst):
        model = load(inst)
        self.attempted += 1
        try:
            with self._span("oracle", inst.name):
                t0 = time.perf_counter()
                out = self.solver_mod.oracle_solve(model)
                dt = time.perf_counter() - t0
        except Exception as exc:
            self._fail(inst, "oracle", _describe(exc))
            return
        self.oracle_s.append(dt)
        primary = float(out.cost[0])
        reason = check_policy(model, out.policy, primary,
                                    self.reference.get(inst.name, primary))
        if reason is not None:
            self._fail(inst, "oracle", reason, wrong=True)
            return
        self.reference.setdefault(inst.name, primary)

    def _solve(self, inst, traced: bool):
        model = load(inst)
        self.attempted += 1
        try:
            with (self._span("solve", inst.name) if traced else nullcontext({})) as attrs:
                t0 = time.perf_counter()
                out = self.solver_mod.solve_cssp(model)
                dt = time.perf_counter() - t0
        except Exception as exc:
            self._fail(inst, "solve", _describe(exc))
            return
        (self.traced_solve_s if traced else self.solve_s).append(dt)
        if traced:
            rep = out.report
            attrs["report_counts"] = [rep.lambda_ssps, rep.backups, rep.expansions]
            attrs["report_lp_pivots"] = rep.lp_pivots
        reason = check_policy(model, out.policy, out.report.primary_cost,
                                    self.reference.get(inst.name))
        if reason is not None:
            self._fail(inst, "solve", reason, wrong=True)

    def _cli(self, inst, workdir: Path):
        path = workdir / f"{inst.name}.json"
        if not path.exists():
            path.write_text(inst.text, encoding="utf-8")
        cmd = [sys.executable, "-m", "scalarplan.cli", "solve", str(path)]
        if inst.penalty is not None:
            cmd += ["--penalty", ",".join(f"{p:g}" for p in inst.penalty)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail(inst, "cli", f"no exit within {CLI_TIMEOUT_S} s")
            return
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            self._fail(inst, "cli", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            return
        self.cli_s.append(dt)
        try:
            doc = json.loads(proc.stdout)
            primary = float(doc["primary_cost"])
            slack = [b - c for c, b in zip(doc["secondary_costs"], doc["bounds"])]
        except (ValueError, KeyError, TypeError) as exc:
            self._fail(inst, "cli", f"unreadable report: {exc}", wrong=True)
            return
        ref = self.reference.get(inst.name)
        if ref is None or abs(primary - ref) > COST_TOL or min(slack, default=0.0) < -FLOW_TOL:
            self._fail(inst, "cli", f"report primary {primary} vs LP {ref}, slack {slack}",
                       wrong=True)


def _exact_primaries_in_child(instances) -> list:
    """``exact_primary`` of each instance, solved in a child process.

    The child keeps the LP's memory out of ``peak_rss_mb``.  It is a plain
    subprocess, not a multiprocessing pool, whose resource tracker would
    outlive the run; ``subprocess.run`` kills and waits for it on every way out.
    """
    items = [[inst.name, inst.text, inst.penalty] for inst in instances]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "exact_lp.py")], env=env,
                          cwd=str(ROOT), input=json.dumps(items), capture_output=True,
                          text=True, timeout=EXACT_LP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exact LP child exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    primaries = json.loads(proc.stdout.strip().splitlines()[-1])
    if len(primaries) != len(instances):
        raise RuntimeError(f"exact LP child gave {len(primaries)} answers "
                           f"for {len(instances)} instances")
    return primaries


def _repeat_for(seconds: float, fn) -> None:
    """Call ``fn`` at least once and until ``seconds`` have passed."""
    start = time.perf_counter()
    fn()
    while time.perf_counter() - start < seconds:
        fn()


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _counter_mismatches(tracer, solve_counts):
    """Solves whose wrapper-summed search counts differ from RunReport.counts."""
    bad = []
    for idx, counts in solve_counts.items():
        span = tracer.spans[idx]
        reported = span[spans.ATTRS].get("report_counts")
        if reported is not None and counts != reported:
            bad.append({"instance": span[spans.INSTANCE], "spans": counts,
                        "report": reported})
    return bad


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scalarplan" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {SRC / 'scalarplan'} or {ROOT / 'BENCHMARK.json'} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()       # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = workloads.build(args.workload, args.seed)
    tracer = spans.Tracer() if args.trace else None
    bench = Bench(work, args.seconds, tracer)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bench.measure(Path(tmp))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    facts = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "fingerprint": work.fingerprint,
        "instances": len(work.instances),
        "rounds": bench.rounds,
        "machine_probe_s": statistics.median(bench.probe_s),
        "nproc": nproc,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": _src_lines(),
        "machine": platform.machine(),
    }
    failed = len(bench.failures)
    extras = {"failed_share": failed / bench.attempted}
    samples = {"setup_s": len(bench.setup_s), "solve_s": len(bench.solve_s),
               "oracle_s": len(bench.oracle_s), "cli_s": len(bench.cli_s)}
    correct = bench.wrong == 0

    if args.trace:
        layer, account, solve_counts = spans.layer_metrics(tracer.spans)
        metrics = {m["name"]: layer.get(m["name"], 0.0) for m in declared}
        extras["layers"] = layer
        extras["self_time_accounting"] = account
        roots = [s for s in tracer.spans if s[spans.NAME] == "solve" and s[spans.PARENT] is None]
        extras["solve_self_time_sum_s"] = sum(account.get("solve", {}).values())
        extras["solve_span_sum_s"] = sum(s[spans.END] - s[spans.START] for s in roots)
        if bench.solve_s and bench.traced_solve_s:
            extras["trace_overhead_s"] = (statistics.median(bench.traced_solve_s)
                                          - statistics.median(bench.solve_s))
        mismatches = _counter_mismatches(tracer, solve_counts)
        extras["counter_mismatches"] = mismatches
        reported = [s[spans.ATTRS]["report_lp_pivots"] for s in roots
                    if "report_lp_pivots" in s[spans.ATTRS]]
        extras["report_lp_pivots_per_solve"] = (sum(reported) / len(reported)
                                                if reported else None)
        extras["missing_targets"] = tracer.missing
        samples["traced_solve_s"] = len(bench.traced_solve_s)
        correct = correct and not mismatches
    else:
        measured = {
            "setup_s": statistics.median(bench.setup_s),
            "solve_s.p50": statistics.median(bench.solve_s) if bench.solve_s else None,
            "instances_per_s": (len(bench.solve_s) / sum(bench.solve_s)
                                if bench.solve_s else None),
            "peak_rss_mb": peak_rss_mb,
        }
        missing = [m["name"] for m in declared if measured.get(m["name"]) is None]
        if missing:
            print(f"perfbench: no sample for {missing}", file=sys.stderr)
            for f in bench.failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        metrics = {m["name"]: measured[m["name"]] for m in declared}
        # measured only where the workload runs them, so not declared
        if bench.oracle_s:
            extras["oracle_s.p50"] = statistics.median(bench.oracle_s)
        if bench.cli_s:
            extras["cli_s"] = statistics.median(bench.cli_s)
        if len(bench.solve_s) >= 200:    # ten samples or more beyond the 95th
            extras["solve_s.p95"] = statistics.quantiles(bench.solve_s, n=20)[-1]

    units = {m["name"]: m["unit"] for m in declared}
    record = {"facts": facts, "samples": samples, "metrics": metrics, "extras": extras,
              "failures": bench.failures, "correct": correct,
              "attempted": bench.attempted, "failed": failed}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{work.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")

    _print_report(record, units)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _print_report(record, units):
    facts, extras = record["facts"], record["extras"]
    print(f"perfbench {facts['workload']} seed={facts['seed']} trace={facts['trace']} "
          f"input sha256={facts['fingerprint']}")
    print("facts: " + json.dumps({k: v for k, v in facts.items()
                                  if k not in ("workload", "seed", "trace", "seconds", "fingerprint")}))
    print("samples: " + json.dumps(record["samples"]))
    counts = record["samples"]
    for name, value in record["metrics"].items():
        n = counts.get(name.split(".p")[0])
        print(f"  {name:32s} {value:14.6g} {units[name]:6s}" + (f" n={n}" if n else ""))
    print(f"  {'failed_share':32s} {extras['failed_share']:14.6g} "
          f"({record['failed']} of {record['attempted']} operations)")
    for name in ("oracle_s.p50", "cli_s", "solve_s.p95"):
        if name in extras:
            n = counts[name.split(".p")[0]]
            print(f"  {name:32s} {extras[name]:14.6g} s      n={n}")
    for inst, op, reason in record["failures"]:
        print(f"  FAILED {op} {inst}: {reason}")
    if facts["trace"]:
        layer = extras["layers"]
        for key in sorted(set(layer) - set(record["metrics"])):
            print(f"  {key:32s} {layer[key]:14.6g} (also measured)")
        if "trace_overhead_s" in extras:
            print(f"  tracing overhead (traced - untraced solve_s.p50): "
                  f"{extras['trace_overhead_s']:.6g} s")
        print(f"  solve_cssp: span total {extras['solve_span_sum_s']:.6g} s, "
              f"layer self times + solver.self_s {extras['solve_self_time_sum_s']:.6g} s")
        print(f"  extract.lp_pivots measured {layer.get('extract.lp_pivots', 0.0):.6g} "
              f"per solve; RunReport.lp_pivots says "
              f"{extras['report_lp_pivots_per_solve']} (known wrong: solver.py reports 0)")
        print(f"  counter cross-check against RunReport.counts: "
              f"{'ok' if not extras['counter_mismatches'] else extras['counter_mismatches']}")
        if extras["missing_targets"]:
            print(f"  not traced (no longer defined): {extras['missing_targets']}")


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so subprocess.run kills and waits for
    # the child it is running (the CLI or the exact LP) before the exit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
