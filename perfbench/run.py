"""fdmkit benchmark: end-to-end and per-layer metrics over four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-expected SEED [SEED ...]

Run from the root of a checkout; the program is imported from its ``src``
directory.  One run writes its inputs from ``--seed`` into a temporary
directory in the checkout, times several fresh set-up processes, then
launches one operation after another (each a fresh process) for about
``--seconds`` seconds and checks every operation's outputs.  ``--trace 1``
alternates traced and untraced operations and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
prints one table row per workload, with ``failed_frac``; ``--selftest``
runs every code path at tiny sizes and checks that the output checker
flags corrupted reports; ``--record-expected`` rewrites ``expected.json``
from the checkout it runs in.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

from layers import PER_LAYER, cli_layers, invariant_layers
from workloads import (CHILD, EXPECTED_PATH, WORKLOADS, check, load_expected,
                       prepare, read_output, summary)

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5      # set-up processes per run; setup_s is their median
MIN_OPS = 3           # operations per run, however long they take
LAUNCH_CAP_S = 120.0  # no operation starts later than this into the run
OP_TIMEOUT_S = 150.0  # an operation still running then is killed


class ProgramMissing(Exception):
    pass


def program_env() -> dict:
    src = ROOT / "src"
    if not (src / "fdmkit" / "__init__.py").is_file():
        raise ProgramMissing(f"no fdmkit package under {src}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(argv: list, env: dict, cwd: str, log_path: str):
    """Run ``python argv`` to completion: (exit code, wall s, cpu s, peak RSS MB).

    CPU time and peak RSS come from ``wait4`` and include every descendant
    the process reaped (the pool workers); peak RSS is the largest single
    process, not a sum.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd,
                                stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(OP_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the operation before leaving
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def _tail(path: str, lines: int = 3) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


class Run:
    """One run of one workload: inputs, set-up probes and operations."""

    def __init__(self, name: str, seed: int, small: bool, log):
        self.w = WORKLOADS[name]
        self.log = log
        self.env = program_env()
        self.workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            self.inputs = prepare(self.w, self.workdir, seed, small, self.env)
        except BaseException:
            self.close()
            raise
        self.expected = (None if small else
                         load_expected().get(self.w.name, {}).get(str(seed)))
        self.reference = None
        self.setups: list[float] = []
        self.ops: list[dict] = []
        self.failed = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup_probe(self, timed: bool = True) -> None:
        rc, wall, _, _ = launch([CHILD, "setup", self.inputs.setup_config],
                                self.env, self.workdir, self._path("setup.log"))
        with open(self._path("setup.log"), encoding="utf-8", errors="replace") as fh:
            printed = fh.read().strip()
        if not timed:
            return
        self.setups.append(wall)
        if rc != 0 or printed != str(self.inputs.problem_n):
            self.failed += 1
            self.log(f"set-up probe FAILED: exit {rc}, printed {printed[-200:]!r}")

    def operation(self, traced: bool) -> dict:
        shutil.rmtree(self._path("out"), ignore_errors=True)
        for stale in ("result.json", "spans.json"):
            if os.path.exists(self._path(stale)):
                os.remove(self._path(stale))
        argv = ([CHILD, "traced", self._path("spans.json"), *self.inputs.traced_argv]
                if traced else self.inputs.argv)
        rc, wall, cpu, rss = launch(argv, self.env, self.workdir, self._path("op.log"))
        out = read_output(self.w, self.workdir)
        problems = check(self.w, self.inputs, rc, out, self.reference,
                         self.expected, self.workdir)
        if rc != 0:
            problems.append(_tail(self._path("op.log")))
        if self.reference is None and out is not None:
            self.reference = out
        op = {"wall": wall, "cpu": cpu, "rss": rss, "traced": traced,
              "problems": problems, "layers": None}
        if traced and not problems:
            try:
                with open(self._path("spans.json"), encoding="utf-8") as fh:
                    spans = json.load(fh)
                op["layers"] = (cli_layers(spans, wall, out, self.inputs)
                                if self.w.is_cli else
                                invariant_layers(spans, wall, out))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"trace: {type(exc).__name__}: {exc}")
        if problems:
            self.failed += 1
        self.ops.append(op)
        self.log(f"op {len(self.ops)}{' traced' if traced else ''}: wall {wall:.3f} s, "
                 f"cpu {cpu:.3f} s, rss {rss:.1f} MB, "
                 + ("ok" if not problems else "FAILED: " + "; ".join(problems)[:600]))
        return op

    def measure(self, seconds: float, trace: bool, probes: int = SETUP_PROBES,
                min_ops: int = MIN_OPS) -> None:
        self.setup_probe(timed=False)  # fills bytecode caches; untimed
        for _ in range(probes):
            self.setup_probe()
        start = time.perf_counter()
        while True:
            self.operation(traced=trace and len(self.ops) % 2 == 0)
            elapsed = time.perf_counter() - start
            typical = statistics.median(op["wall"] for op in self.ops)
            if elapsed + typical > LAUNCH_CAP_S:
                break
            if len(self.ops) >= min_ops and elapsed + typical > seconds:
                break

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.setups)

    def end_to_end(self) -> dict:
        med = lambda key: statistics.median(op[key] for op in self.ops)  # noqa: E731
        values = {"wall_s": med("wall"), "setup_s": statistics.median(self.setups),
                  "cpu_s": med("cpu"), "peak_rss_mb": med("rss")}
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        layered = [op["layers"] for op in self.ops if op["layers"] is not None]
        values = {name: (statistics.median(m[name] for m in layered) if layered else 0.0)
                  for name in PER_LAYER}
        traced = [op["wall"] for op in self.ops if op["traced"]]
        plain = [op["wall"] for op in self.ops if not op["traced"]]
        if traced and plain:
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}

    def result(self, trace: bool) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": self.per_layer() if trace else self.end_to_end()}


# ---------------------------------------------------------------------------
# environment


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level").strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(f"{base}/size").strip()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model, **caches,
            "python": platform.python_version(), **versions, "git_sha": sha}


def loadavg() -> str:
    return " ".join(_read("/proc/loadavg").split()[:3]) or "unavailable"


# ---------------------------------------------------------------------------
# entry points


def run_one(name: str, seed: int, seconds: float, trace: bool, log) -> dict:
    log(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}; "
        f"loadavg {loadavg()}")
    run = Run(name, seed, small=False, log=log)
    try:
        if run.expected is None:
            log(f"no recorded expectation for seed {seed}: checks are structural "
                "and against the run's first operation")
        run.measure(seconds, trace)
        result = run.result(trace)
    finally:
        run.close()
    for key, m in result["metrics"].items():
        log(f"{key} = {m['value']:.6g} {m['unit']}")
    log(f"failed_frac = {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']}/{result['attempted']})")
    return result


def run_all(seed: int, seconds: float, log) -> dict:
    results = {name: run_one(name, seed, seconds, False, log) for name in WORKLOADS}
    print(f"{'workload':<16} {'wall_s (s)':>11} {'setup_s (s)':>12} "
          f"{'cpu_s (s)':>10} {'peak_rss_mb (MB)':>17} {'failed_frac':>12}")
    for name, r in results.items():
        m = {k: v["value"] for k, v in r["metrics"].items()}
        print(f"{name:<16} {m['wall_s']:>11.4f} {m['setup_s']:>12.4f} "
              f"{m['cpu_s']:>10.4f} {m['peak_rss_mb']:>17.1f} "
              f"{r['failed'] / r['attempted']:>12.4g}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}


def _corruptions(w, out):
    """(label, corrupted copy, needs the expectation to be caught)."""
    cases = []
    if w.is_cli:
        bad = copy.deepcopy(out)
        bad["seeds"][0]["final_f"] *= 1.0 + 1e-6
        cases.append(("changed final_f", bad, True))
        bad = copy.deepcopy(out)
        bad["seeds"][0] = {"seed": bad["seeds"][0]["seed"], "status": "failed",
                           "error": "RuntimeError: injected"}
        cases.append(("failed seed", bad, False))
        if any(e.get("certificates") for e in out["seeds"]):
            bad = copy.deepcopy(out)
            bad["seeds"][0]["certificates"][0]["passed"] = False
            cases.append(("failed certificate", bad, False))
        if out["aggregate"]["gap_reports"]:
            bad = copy.deepcopy(out)
            bad["aggregate"]["gap_reports"][0]["iteration_bound"] += 1
            cases.append(("changed iteration_bound", bad, True))
    else:
        bad = copy.deepcopy(out)
        bad[0]["final_f"] *= 1.0 + 1e-6
        cases.append(("changed final f", bad, True))
        bad = copy.deepcopy(out)
        bad[3]["all_ok"] = False
        cases.append(("failed audit", bad, False))
    return cases


def selftest(log) -> int:
    """Every workload's code path at tiny sizes, then the checker itself."""
    errors = []
    for name, w in WORKLOADS.items():
        for trace in (False, True):
            run = Run(name, seed=0, small=True, log=log)
            try:
                run.measure(seconds=0, trace=trace, probes=1, min_ops=2)
                result = run.result(trace)
                inputs, out = run.inputs, run.reference
            finally:
                run.close()
            want = PER_LAYER if trace else END_TO_END
            if not result["correct"] or set(result["metrics"]) != set(want):
                errors.append(f"{name} trace={int(trace)}: {result}")
        if out is None:
            errors.append(f"{name}: no output to corrupt")
            continue
        if check(w, inputs, 0, out, out, summary(w, out)):
            errors.append(f"{name}: checker rejects a correct output")
        for label, bad, needs_expected in _corruptions(w, out):
            # caught against the run's first output, and on its own (or
            # against the recorded expectation where only that can tell)
            alone = summary(w, out) if needs_expected else None
            for reference, expected in ((out, None), (None, alone)):
                if not check(w, inputs, 0, bad, reference, expected):
                    errors.append(f"{name}: checker missed {label}")
    for e in errors:
        log(f"SELFTEST FAILED: {e}")
    log("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def record_expected(seeds: list, log) -> int:
    data = load_expected()
    for name, w in WORKLOADS.items():
        for seed in seeds:
            run = Run(name, seed, small=False, log=log)
            run.expected = None
            try:
                run.measure(seconds=0, trace=False, probes=0, min_ops=1)
                out = run.reference
            finally:
                run.close()
            if run.failed or out is None:
                log(f"{name} seed {seed}: not recorded, the operation failed")
                return 1
            data.setdefault(name, {})[str(seed)] = summary(w, out)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"wrote {EXPECTED_PATH}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-expected", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args(argv)

    def log(msg: str) -> None:
        print(msg, flush=True)

    # SIGTERM unwinds like an exception, so operations are stopped and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        program_env()
        if args.selftest:
            return selftest(log)
        if args.record_expected:
            return record_expected(args.record_expected, log)
        if args.workload is None:
            ap.error("--workload is required")
        log("environment " + json.dumps(environment(), sort_keys=True))
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, log)
        else:
            result = run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), log)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
