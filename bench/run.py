"""Benchmark of the syzstab CLI: closed-loop workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload verdicts --seed 0 --seconds 20 --trace 0
    python3 bench/run.py                # every workload, untraced and traced
    python3 bench/run.py --pin          # re-pin expected outputs of seed 0

One client sends one request at a time (a closed loop): each request is an
in-process ``syzstab.cli.run([..., "--json"], stdout=buffer)`` call on a
document that ``workloads.py`` generates from the seed.  A pass runs whole
rounds of the workload's request list until ``--seconds`` have passed and at
least ``MIN_SAMPLES`` requests completed.  Outputs are checked after the pass:
every repeat of a request must print the same bytes, seed 0 must print the
pinned bytes of ``expected.json``, and ``oracles.py`` re-checks each output.

Times are normalized for the speed of the machine while they were taken
(``speed.py``); the raw wall-clock figures are in the detail line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs whole rounds
untraced for half the time and then traced for half the time, and prints the
per-layer metrics of ``tracing.py`` per round of the request list.  The last
line of standard output is the result object; the line before it holds the
input descriptors, failures and raw counters.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402

PINNED_SEED = 0
EXPECTED = BENCH / "expected.json"
SETUP_REPEATS = 9
# With 110 samples, at least ten lie above the 90th percentile of a pass.
MIN_SAMPLES = 110


class SetupError(RuntimeError):
    pass


def import_cli():
    """Import ``syzstab`` afresh from ``src/`` and return its ``cli`` module."""
    src = ROOT / "src"
    if not (src / "syzstab" / "__init__.py").is_file():
        raise SetupError(f"no syzstab package under {src}")
    for name in [m for m in sys.modules if m == "syzstab" or m.startswith("syzstab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.import_module("syzstab")
    return importlib.import_module("syzstab.cli")


def call(cli, argv: list[str], stdin: str):
    """One request: (exit code or exception text, stdout text)."""
    sys.stdin, out = io.StringIO(stdin), io.StringIO()
    try:
        code = cli.run(argv, stdout=out)
    except (Exception, SystemExit) as exc:  # a crash is a failed request, not a crashed run
        code = repr(exc)
    return code, out.getvalue()


WARMUP_DOC = json.dumps({"variables": 3, "monomials": [[2, 0, 0], [0, 2, 0], [0, 0, 2]]})
WARMUP = {
    "verdicts": [(["check", "--json"], WARMUP_DOC), (["report", "--json"], WARMUP_DOC)],
    "sections": [(["lowrank", "--json"], WARMUP_DOC),
                 (["sections", "--twist", "3", "--json"], WARMUP_DOC),
                 (["line-test", "--json"], WARMUP_DOC)],
    "search": [(["search", "--vars", "3", "--degree", "3", "--count", "3", "--json"], "")],
}


def setup(workload: str, seed: int, smoke: bool):
    """Import, generate the round and warm up; returns (start, end, cli, requests)."""
    start = time.perf_counter()
    cli = import_cli()
    requests = workloads.WORKLOADS[workload](seed)
    if smoke:
        requests = workloads.smoke(requests)
    for argv, stdin in WARMUP[workload]:
        call(cli, argv, stdin)
    return start, time.perf_counter(), cli, requests


def run_rounds(cli, requests, min_seconds: float, min_samples: int, tracer=None):
    """Whole rounds until both limits are met; returns (rounds, log).

    ``log`` holds (request index, start, end, exit code, output) per request.
    """
    argvs = [list(r.argv) for r in requests]
    stdins = [r.stdin for r in requests]
    log = []
    rounds = 0
    clock = time.perf_counter
    saved = sys.stdin
    start = clock()
    try:
        while True:
            for i, argv in enumerate(argvs):
                if tracer is not None:
                    tracer.op += 1
                t0 = clock()
                code, out = call(cli, argv, stdins[i])
                log.append((i, t0, clock(), code, out))
            rounds += 1
            if clock() - start >= min_seconds and len(log) >= min_samples:
                return rounds, log
    finally:
        sys.stdin = saved


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify(workload: str, seed: int, requests, logs) -> tuple[int, list[str]]:
    """Failed request count over ``logs`` and a description of each problem."""
    pinned = None
    if seed == PINNED_SEED:
        pinned = json.loads(EXPECTED.read_text())[workload] if EXPECTED.is_file() else {}
    reference: dict[int, str] = {}
    bad: dict[int, str] = {}
    for i, _, _, code, out in logs:
        reference.setdefault(i, out)
        if code != 0:
            bad[i] = f"exit {code}"
        elif out != reference[i]:
            bad[i] = "output differs between repeats"
    for i, out in reference.items():
        if i in bad:
            continue
        req = requests[i]
        if pinned is not None and pinned.get(req.key()) != digest(out):
            bad[i] = "differs from the pinned output" if req.key() in pinned else "not pinned"
            continue
        try:
            problems = oracles.check(req, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:  # output of another shape
            problems = [f"check failed: {exc!r}"]
        if problems:
            bad[i] = "; ".join(problems)
    failed = sum(1 for i, *_ in logs if i in bad)
    notes = [f"{requests[i].kind} #{i} {list(requests[i].argv)}: {why}" for i, why in sorted(bad.items())]
    return failed, notes


def describe(requests, log, times) -> dict:
    """Input descriptors of one round plus the shares of time per input kind."""
    outputs = {}
    time_by_input: Counter = Counter()
    for (i, _, _, _, out), seconds in zip(log, times):
        outputs.setdefault(i, out)
        time_by_input[requests[i].props.get("input", "none")] += seconds
    total_time = sum(time_by_input.values()) or 1.0
    kinds = Counter(r.kind for r in requests)
    inputs = Counter(r.props.get("input", "none") for r in requests)
    desc: dict = {
        "requests_per_round": len(requests),
        "kinds": dict(sorted(kinds.items())),
        "input_request_share": {k: v / len(requests) for k, v in sorted(inputs.items())},
        "input_time_share": {k: v / total_time for k, v in sorted(time_by_input.items())},
    }
    sizes = Counter(r.props["members"] for r in requests if "members" in r.props)
    if sizes:
        desc["family_size_histogram"] = dict(sorted(sizes.items()))
    twists = [r.props["twist"] for r in requests if "twist" in r.props]
    if twists:
        desc["twist_range"] = [min(twists), max(twists)]
    bits = Counter(r.props["coefficient_bits"] for r in requests if "coefficient_bits" in r.props)
    if bits:
        desc["coefficient_bits_histogram"] = dict(sorted(bits.items()))
    verdict_kinds: Counter = Counter()
    nodes = []
    for i, out in outputs.items():
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError):
            continue
        if "verdict" in result:
            verdict_kinds[result["verdict"]["kind"]] += 1
        if "nodes" in result:
            nodes.append(result["nodes"])
    if verdict_kinds:
        desc["verdict_kinds"] = dict(sorted(verdict_kinds.items()))
    if nodes:
        desc["search_nodes"] = {"total": sum(nodes), "max": max(nodes),
                                "median": statistics.median(nodes)}
    return desc


def monomial_shares(requests, log, times) -> tuple[float, float]:
    """Share of requests and of request time with monomial input."""
    mono = [requests[i].props.get("input") == "monomial" for i, *_ in log]
    mono_time = sum(t for t, m in zip(times, mono) if m)
    return sum(mono) / len(mono), mono_time / sum(times)


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def measure(args) -> int:
    try:
        with SpeedSampler() as sampler:
            setups = [setup(args.workload, args.seed, args.smoke) for _ in range(SETUP_REPEATS)]
    except (SetupError, ImportError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    setup_times = [sampler.normalize(start, end) for start, end, *_ in setups]
    *_, cli, requests = setups[-1]
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "setup_runs_s": [norm for _, norm in setup_times],
                    "raw_setup_runs_s": [wall for wall, _ in setup_times]}
    if not args.trace:
        with SpeedSampler() as sampler:
            rounds, logs = run_rounds(cli, requests, args.seconds, MIN_SAMPLES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        walls, times = zip(*(sampler.normalize(t0, t1) for _, t0, t1, *_ in logs))
        metrics = {
            "setup_s": (statistics.median(norm for _, norm in setup_times), "s"),
            "ops_per_s": (len(times) / sum(times), "ops/s"),
            "latency_p50_ms": (1000 * statistics.median(times), "ms"),
            "latency_p90_ms": (1000 * p90(times), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        detail.update(rounds=rounds, seconds=logs[-1][2] - logs[0][1], samples=len(logs),
                      samples_above_p90=sum(1 for x in times if x > p90(times)),
                      raw_ops_per_s=len(walls) / sum(walls),
                      raw_latency_p50_ms=1000 * statistics.median(walls),
                      raw_latency_p90_ms=1000 * p90(walls))
    else:
        with SpeedSampler() as sampler:
            plain_rounds, plain_log = run_rounds(cli, requests, args.seconds / 2, 0)
        plain_times = [sampler.normalize(t0, t1)[1] for _, t0, t1, *_ in plain_log]
        tracer = tracing.Tracer()
        restore = tracer.install()
        try:
            with SpeedSampler(tracer) as sampler:
                rounds, log = run_rounds(cli, requests, args.seconds / 2, 0, tracer)
        finally:
            restore()
        timed = [sampler.normalize(t0, t1) for _, t0, t1, *_ in log]
        # Op k of the tracer is entry k - 1 of the traced log.
        scales = [1.0] + [norm / wall for wall, norm in timed]
        traced_s = sum(norm for _, norm in timed)
        metrics = tracing.per_layer_metrics(
            tracer, scales, rounds, len(log), traced_s / rounds, sum(plain_times) / plain_rounds,
            monomial_shares(requests, plain_log, plain_times))
        logs = plain_log + log
        times = plain_times + [norm for _, norm in timed]
        detail.update(rounds=rounds, plain_rounds=plain_rounds, spans=len(tracer.spans),
                      traced_request_s=traced_s / rounds,
                      counters={k: v / rounds for k, v in sorted(tracer.counts.items())
                                if k != "max_entry_bits"})
    failed, problems = verify(args.workload, args.seed, requests, logs)
    if not args.trace:
        metrics["success_ratio"] = (1 - failed / len(logs), "fraction")
    detail["descriptors"] = describe(requests, logs, times)
    detail["failed_ratio"] = failed / len(logs)
    detail["problems"] = problems
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(logs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def pin() -> int:
    """Run every request of the pinned seed once, check it, store its digest."""
    cli = import_cli()
    expected = {}
    status = 0
    for name, make in workloads.WORKLOADS.items():
        requests = make(PINNED_SEED)
        outputs = {}
        for req in requests:
            code, out = call(cli, list(req.argv), req.stdin)
            problems = [f"exit {code}"] if code != 0 else oracles.check(req, out)
            if problems:
                print(f"{name}: {list(req.argv)}: {'; '.join(problems)}", file=sys.stderr)
                status = 1
            outputs[req.key()] = digest(out)
        expected[name] = outputs
        print(f"{name}: {len(outputs)} requests pinned", file=sys.stderr)
    if status == 0:
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return status


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced; prints a table."""
    results = {}
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            ok = ok and result["correct"]
            entry = results.setdefault(name, {"detail": {}})
            entry["detail"][f"trace{trace}"] = detail
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry.setdefault("attempted", 0)
            entry["attempted"] += result["attempted"]
            entry["failed"] = entry.get("failed", 0) + result["failed"]
    names = list(results)
    print(f"{'metric':44} {'unit':9} " + " ".join(f"{n:>14}" for n in names))
    for section in ("end_to_end", "per_layer"):
        for metric, m in results[names[0]][section].items():
            values = " ".join(f"{results[n][section][metric]['value']:14.6g}" for n in names)
            print(f"{metric:44} {m['unit']:9} {values}")
    print(f"{'failed_ratio':44} {'fraction':9} "
          + " ".join(f"{results[n]['failed'] / results[n]['attempted']:14.6g}" for n in names))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cheap subset of each round, for the smoke test")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the expected outputs of the default seed")
    parser.add_argument("--out", help="with no --workload: also write all results as JSON")
    args = parser.parse_args(argv)
    if args.pin:
        return pin()
    if args.workload is None:
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
