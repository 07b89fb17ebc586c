"""qelim benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seconds S]

A run builds its inputs from the seed, then drives one workload as a closed
loop with a single caller in this one process, checking every answer against
an independent reference outside the timed section.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are end to end; with
``--trace 1`` they are per layer, from traced passes over a fixed op set.
``--all`` runs every workload on the default and on the held-out seed, each
in a fresh process.  See ``bench/README.md`` for the metrics.

Exit status: 0 on a complete run, 1 when an answer is wrong, 2 on a usage
error, when the ``qelim`` sources are not next to this directory, or when a
traced pass fails.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# Never used while tuning the benchmark; a claimed gain must hold here too.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
# Per-op wall budget: a guard against hangs only, far above any op of the
# driver workloads today, so that no op is cut at a point that depends on
# timing and every count repeats.  Traced passes run slower and get this
# many times more.
GUARD_S = 5.0
TRACE_BUDGET_FACTOR = 5
# A whole run, trace passes included, ends well inside this many seconds.
RUN_LIMIT_S = 170


@dataclass(frozen=True)
class Settings:
    prefix: int  # inputs made during set-up; more are made on demand
    block: int  # ops between checks of the clock
    tail_cap: float  # highest tail percentile reported, whatever the sample
    trace_ops: int  # size of the fixed op set of the traced run
    trace_inputs: Callable | None = None  # generator of that set, if not the workload's


def _blocked(block: tuple, repeats: int, tail_cap: float, trace_blocks: int) -> Settings:
    return Settings(
        prefix=repeats * len(block),
        block=len(block),
        tail_cap=tail_cap,
        trace_ops=trace_blocks * len(block),
    )


# Tail caps keep the percentile at one where today's 25 s runs have at least
# ten samples beyond it on every seed.
SETTINGS = {
    "random-decide": Settings(prefix=1000, block=100, tail_cap=95.0, trace_ops=500),
    "alternation": _blocked(inputs.ALT_BLOCK, 16, 90.0, 10),
    "cli-wide": Settings(
        prefix=16 * len(inputs.CLI_SHAPES),
        block=len(inputs.CLI_SHAPES),
        tail_cap=90.0,
        trace_ops=len(inputs.CLI_SHAPES) * len(inputs.CLI_SIZES),
        trace_inputs=inputs.cli_ladder,
    ),
    # Not a driver workload: the known blow-ups, so their failures stay visible.
    "alternation-deep": _blocked(inputs.ALT_DEEP_BLOCK, 4, 90.0, 1),
}


class Abort(Exception):
    """The run cannot produce a result; exits with status 2."""


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException so library ``except Exception``
    handlers cannot swallow it."""


def _alarm(signum, frame):
    raise OverBudget()


def load_qelim() -> SimpleNamespace:
    """Import ``qelim`` afresh from the sources next to the benchmark."""
    if not (SRC / "qelim" / "__init__.py").is_file():
        raise Abort(f"no qelim sources at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "qelim" or m.startswith("qelim.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("qelim")
    if Path(pkg.__file__).resolve().parent != SRC / "qelim":
        raise Abort(f"imported qelim from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(
        **{m: importlib.import_module(f"qelim.{m}") for m in
           ("formula", "dnf", "engine", "successor", "parser", "cli")}
    )


def set_up(workload: str, seed: int, traced: bool = False):
    """Import ``qelim`` and make the inputs: the timed stream's prefix, or the
    traced run's fixed op set."""
    q = load_qelim()
    s = SETTINGS[workload]
    if traced:
        stream = inputs.Stream(workload, seed, s.trace_ops, s.trace_inputs)
    else:
        stream = inputs.Stream(workload, seed, s.prefix)
    prepare = workloads.WORKLOADS[workload][0]
    cases = [prepare(q, item) for item in stream.items]
    return q, stream, cases


def case_at(q, workload: str, stream, cases: list, i: int):
    """Input i of the stream as library objects; past the prefix, inputs are
    made outside the timed section and dropped after use."""
    if i < len(cases):
        return cases[i]
    return workloads.WORKLOADS[workload][0](q, stream.after_prefix())


def one_op(q, step, workload: str, case, budget_s: float, tracer=None, op_id=0):
    """Time one op, then check it; returns (latency_s, failure class or None)."""
    _, run, check = workloads.WORKLOADS[workload]
    outcome, failure = None, None
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget_s)
            start = perf_counter()
            outcome = run(q, step, case)
        finally:
            stop = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        # The alarm may also land in the finally clause above.
        failure, stop = "over_budget", perf_counter()
    except Exception as exc:
        failure = workloads.classify(q, exc)
    latency = stop - start
    if tracer is not None:
        tracer.end_op()
    if failure is None:
        try:
            check(q, case, outcome)
        except workloads.OpFailed as exc:
            failure = exc.kind
        except workloads.WrongAnswer as exc:
            raise workloads.WrongAnswer(f"{workload} op {op_id}: {exc}") from None
    return latency, failure


@dataclass
class Pass:
    latencies: list
    failures: Counter
    sizes: list


def timed_loop(q, step, workload: str, stream, cases, seconds: float, between=None) -> Pass:
    """Closed loop until the timed ops add up to ``seconds``; the clock is
    checked only between blocks, so every run covers whole schedule blocks.
    ``between(elapsed)``, if given, runs untimed after each block."""
    s = SETTINGS[workload]
    result = Pass([], Counter(), [])
    elapsed = 0.0
    while elapsed < seconds:
        for _ in range(s.block):
            i = len(result.latencies)
            case = case_at(q, workload, stream, cases, i)
            latency, failure = one_op(q, step, workload, case, GUARD_S, op_id=i)
            result.latencies.append(latency)
            elapsed += latency
            if failure:
                result.failures[failure] += 1
        if between is not None:
            between(elapsed)
    return result


def fixed_pass(q, step, workload: str, stream, cases, tracer=None) -> Pass:
    s = SETTINGS[workload]
    budget = GUARD_S * (TRACE_BUDGET_FACTOR if tracer is not None else 1)
    result = Pass([], Counter(), [])
    for i in range(s.trace_ops):
        case = case_at(q, workload, stream, cases, i)
        latency, failure = one_op(q, step, workload, case, budget, tracer, i)
        result.latencies.append(latency)
        result.sizes.append(stream.items[i].get("atoms", 0))
        if failure:
            result.failures[failure] += 1
    return result


def tail(latencies: list, cap: float) -> tuple[float, float, int]:
    """Highest ladder percentile, up to ``cap``, with ten samples beyond it.

    The cap keeps the percentile the same when a faster commit fits more ops
    into a run, so parent and change are compared at the same percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if p <= cap and n - math.ceil(p / 100 * n) >= 10:
            chosen = p
    rank = max(1, math.ceil(chosen / 100 * n))
    return ordered[rank - 1], chosen, n - rank


def loglog_slope(xs: list, ys: list) -> float:
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(workload: str, seed: int, stream, attempted: int, failures: Counter) -> None:
    failed = sum(failures.values())
    classes = " ".join(f"{k}={failures[k]}" for k in workloads.FAILURE_CLASSES)
    print(f"workload {workload}  seed {seed}  inputs sha256:{stream.digest} "
          f"(first {len(stream.items)})")
    print(f"attempted {attempted}  failed {failed}  failed_share {failed / attempted:.6f}  {classes}")


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    q, stream, cases = set_up(workload, seed)
    setups = [perf_counter() - PROCESS_START]

    def set_up_again(elapsed: float) -> None:
        # The other set-ups are spread over the timed loop, so their median
        # follows the machine over the whole run, not over its first second.
        while len(setups) < SETUP_REPEATS and elapsed >= seconds * len(setups) / SETUP_REPEATS:
            gc.collect()
            start = perf_counter()
            set_up(workload, seed)
            setups.append(perf_counter() - start)

    measured = timed_loop(q, q.successor.STEP, workload, stream, cases, seconds, set_up_again)
    set_up_again(seconds)
    lat = measured.latencies
    attempted = len(lat)
    tail_s, tail_p, beyond = tail(lat, SETTINGS[workload].tail_cap)
    report(workload, seed, stream, attempted, measured.failures)
    print(f"set-up {SETUP_REPEATS}x: " + " ".join(f"{s:.4f}" for s in setups)
          + f" s (first includes interpreter start)  latency_tail is p{tail_p:g} "
          f"over {attempted} samples, {beyond} beyond it")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": sum(measured.failures.values()),
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "ops_per_s": metric(attempted / sum(lat), "1/s"),
            "latency_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
            "latency_tail_ms": metric(tail_s * 1000, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def traced_pass(workload: str, seed: int, tag: int) -> dict:
    """One traced pass over the fixed op set (runs in a child process)."""
    q, stream, cases = set_up(workload, seed, traced=True)
    tracer = tracing.Tracer()
    step = tracing.install(q, tracer)
    measured = fixed_pass(q, step, workload, stream, cases, tracer)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-pass{tag}.tsv.gz"
    tracer.write(spans, f"# {workload} seed {seed} inputs sha256:{stream.digest}\n")
    return {
        "wall_s": sum(measured.latencies),
        "layers": tracing.layer_metrics(tracer, len(measured.latencies)),
        "spans": len(tracer.sp_name),
        "span_file": str(spans.relative_to(ROOT)),
        "failures": dict(measured.failures),
    }


def run_traced(workload: str, seed: int) -> dict:
    q, stream, cases = set_up(workload, seed, traced=True)
    plain = fixed_pass(q, q.successor.STEP, workload, stream, cases)
    ops = len(plain.latencies)
    passes = []
    for tag in (1, 2):
        remaining = RUN_LIMIT_S - (perf_counter() - PROCESS_START)
        try:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--traced-pass", str(tag)],
                capture_output=True, text=True, timeout=max(1.0, remaining / (3 - tag)),
            )
        except subprocess.TimeoutExpired:
            raise Abort(f"traced pass {tag} did not finish in time")
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise Abort(f"traced pass {tag} exited with {child.returncode}")
        passes.append(json.loads(child.stdout.strip().splitlines()[-1]))
    first, second = (p["layers"] for p in passes)
    counted = [k for k in first if not k.endswith("_s")]
    mismatched = [k for k in counted if first[k] != second[k]]
    report(workload, seed, stream, ops, plain.failures)
    print(f"traced passes: {passes[0]['spans']} spans in {passes[0]['span_file']}; "
          f"counts that differ between the two passes: {', '.join(mismatched) or 'none'}")
    untraced_s = sum(plain.latencies)
    traced_s = passes[0]["wall_s"]
    sizes = plain.sizes if workload == "cli-wide" else []
    metrics = {name: metric(value, _layer_unit(name)) for name, value in first.items()}
    metrics.update({
        "cli.latency_slope": metric(loglog_slope(sizes, plain.latencies), "ratio"),
        "trace.ops": metric(ops, "count"),
        "trace.untraced_wall_s": metric(untraced_s, "s"),
        "trace.traced_wall_s": metric(traced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.overhead_share": metric((traced_s - untraced_s) / untraced_s, "ratio"),
        "trace.counts_mismatched": metric(len(mismatched), "count"),
    })
    for kind in workloads.FAILURE_CLASSES:
        metrics[f"failed.{kind}"] = metric(plain.failures[kind], "count")
    return {
        "correct": True,
        "attempted": ops,
        "failed": sum(plain.failures.values()),
        "metrics": metrics,
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_product", "_per_op")):
        return "ratio"
    return "count"


def run_all(seconds: float) -> int:
    """Every workload on both seeds, each in a fresh process."""
    status = 0
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in inputs.GENERATORS:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=RUN_LIMIT_S + 10,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode != 0 or not lines:
                sys.stdout.write(child.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                print(f"  {name:<16} {m['value']:>14.6f} {m['unit']}")
            print()
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload on both seeds")
    ap.add_argument("--traced-pass", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _alarm)
    if args.all:
        return run_all(args.seconds)
    if args.workload is None:
        ap.error("--workload is required")
    try:
        if args.traced_pass is not None:
            result = traced_pass(args.workload, args.seed, args.traced_pass)
        elif args.trace:
            result = run_traced(args.workload, args.seed)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds)
    except workloads.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
