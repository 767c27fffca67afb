"""The repository benchmark: whole ``jmmw`` runs, timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload run is a fresh ``jmmw`` process with an empty result
cache (``JMMW_CACHE_DIR``) and a warm compiled-kernel cache
(``XDG_CACHE_HOME``), both under ``.bench_build/`` in the checkout.
Runs repeat until ``--seconds`` is spent; medians are reported.

- ``--trace 0``: untraced runs give the end-to-end metrics.  A few
  set-up-only launches (stopped at the first simulating call) come
  first, so ``setup_s`` is a median over several set-ups even when a
  workload fits only one or two whole runs.
- ``--trace 1``: untraced and traced runs alternate; the traced ones
  give the per-layer metrics (see ``layers.py``), their difference the
  tracing overhead.

Every run's stdout digest and exit code must equal the reference
recorded for the seed (``references.json``), and a traced run's stdout
must equal its untraced partner's byte for byte.  The last stdout line
is the result JSON; the run record with its environment is appended
to ``.bench_build/perfbench/history.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
XDG = ROOT / ".bench_build" / "xdg"
#: The child entry point each workload process starts from.
LAUNCH = HERE / "launch.py"

#: Benchmark seed n runs the program at seed BASE_SEED + n % N_SEEDS;
#: references exist for exactly these documented seeds.
BASE_SEED = 1234
N_SEEDS = 10

#: A single workload run is killed (and fails) after this long.
RUN_TIMEOUT_S = 150.0

#: Every run of one invocation is killed by this many seconds after its
#: start, so the invocation always ends well inside three minutes.
DEADLINE_S = 160.0

#: How long a run's leftover processes (multiprocessing's resource
#: tracker cleans up after the main process) may take to end by
#: themselves before they are killed.
REAP_GRACE_S = 10.0

#: Set-up-only launches per untraced invocation.
SETUP_RUNS = 5

#: CPU seconds of one speed probe (``_probe``) in a fast phase of a
#: 2-vCPU Xeon VM; ``norm_cpu_s`` is CPU seconds at that speed.
PROBE_NOMINAL_S = 0.0012

#: Seconds between two speed probes while a run runs (about 2% of a CPU).
PROBE_PERIOD_S = 0.05

#: Unattributed share of a traced figure run above which coverage is
#: flagged as too thin to explain the run.
OTHER_SHARE_BOUND = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: Operations per run: figures or campaign cells.
    ops: int
    #: Whether the program seed reaches the program, through the quick
    #: simulation config; otherwise the study fixes its own inputs.
    seeded: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coherent-sweep", ("figures", "fig07", "fig16", "--quick"), 2, True),
        Workload("misscurve-sweep", ("figures", "fig12", "fig13", "--quick"), 2, True),
        Workload(
            "campaign-saturation",
            ("campaign", "run", "saturation", "--executor", "local",
             "--jobs", "2", "--reps", "4"),
            32,
            False,
        ),
    )
}

FIGURE_WORKLOADS = ("coherent-sweep", "misscurve-sweep")


def program_seed(seed: int) -> int:
    return BASE_SEED + seed % N_SEEDS


@dataclass
class Run:
    """One workload process, measured from launch to exit."""

    traced: bool
    wall_s: float
    cpu_s: float
    setup_s: float
    setup_wall_s: float
    rss_mb: float
    exit_code: int
    sha256: str
    events: float
    load1: float
    #: Median CPU seconds of the speed probe while the run ran.
    probe_s: float = PROBE_NOMINAL_S
    records: list = field(default_factory=list)
    ok: bool = False


def child_env(cache_dir: Path) -> dict[str, str]:
    """The user's environment minus every ``JMMW_*`` switch, plus ours."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("JMMW_")}
    env.pop("PYTHONPATH", None)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        XDG_CACHE_HOME=str(XDG),
        JMMW_CACHE_DIR=str(cache_dir),
        TMPDIR=str(BUILD / "tmp"),
    )
    return env


def report_events(workload: str, stdout: bytes) -> float:
    """Load-plane CTMC events, read from the campaign report's ``events`` rows."""
    if workload != "campaign-saturation":
        return 0.0
    total = 0.0
    for line in stdout.decode("utf-8", "replace").splitlines():
        fields = line.split()
        if len(fields) == 5 and fields[1] == "events":
            total += float(fields[2]) * int(fields[4])
    return total


# -- process hygiene: every process a run starts has ended before it returns

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36
_prctl = ctypes.CDLL(None, use_errno=True).prctl if sys.platform == "linux" else None


def _die_with_benchmark() -> None:
    """In the launched child: be killed if the benchmark itself dies."""
    if _prctl is not None:
        _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _children() -> list[int]:
    """This process's live or unreaped child processes (Linux)."""
    pids = []
    for task in Path("/proc/self/task").glob("*/children"):
        try:
            pids += [int(pid) for pid in task.read_text().split()]
        except OSError:
            continue
    return pids


def _reap(pgid: int) -> None:
    """Wait until every process of a finished run has ended.

    Helpers can outlive the run's main process: multiprocessing's
    resource tracker exits only after it has cleaned up behind it.  The
    benchmark is the subreaper of its runs, so orphaned helpers become
    its children and are reaped here; whatever is still alive after
    ``REAP_GRACE_S`` is killed.
    """
    give_up = time.monotonic() + 3 * REAP_GRACE_S
    kill_at = time.monotonic() + REAP_GRACE_S
    while time.monotonic() < give_up:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        left = _children()
        if not left and not _group_alive(pgid):
            return
        if time.monotonic() > kill_at:
            _kill_group(pgid)
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)
    print(f"perfbench: processes of run {pgid} would not end", file=sys.stderr)


def _wait_run(pid: int, timeout_s: float):
    """``wait4`` a launched group leader; kill its group after ``timeout_s``.

    Returns its wait status, its resource usage and the monotonic time it
    ended, once every process of its group has ended too.
    """
    previous = signal.signal(signal.SIGALRM, lambda *_: _kill_group(pid))
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    try:
        _, status, usage = os.wait4(pid, 0)
        ended = time.monotonic()
    except BaseException:
        _kill_group(pid)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        _reap(pid)
    return status, usage, ended


# -- the machine's speed, sampled while a run runs


def _probe() -> None:
    """A fixed pure-Python loop, about a millisecond of CPU."""
    total = 0
    for i in range(20_000):
        total += i * i


class SpeedSampler:
    """Times :func:`_probe` every ``PROBE_PERIOD_S`` in a thread.

    The shared machine's speed drifts by up to 1.6x, in phases of
    seconds to minutes, and a run's CPU seconds drift with it.  The
    probe's CPU time over the same seconds drifts alike (correlation
    0.95 over ten ``misscurve-sweep`` runs), so it cancels the drift
    out of ``norm_cpu_s``.  The probe runs no code of the program.
    """

    def __enter__(self) -> "SpeedSampler":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while True:
            start = time.thread_time()
            _probe()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return


def run_once(workload: Workload, seed: int, mode: str, slot: str,
             deadline: float | None = None) -> Run:
    """Launch one fresh ``jmmw`` process and measure it.

    ``mode`` is ``launch.py``'s: "plain", "trace", or "setup" (the run
    is killed at its first simulating call; only set-up is measured).
    The run is killed after ``RUN_TIMEOUT_S`` or at the monotonic
    ``deadline``, whichever comes first.  It returns only after every
    process the run started has ended.
    """
    run_dir = BUILD / "runs" / slot
    shutil.rmtree(run_dir, ignore_errors=True)
    out_dir = run_dir / "obs"
    out_dir.mkdir(parents=True)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    launch = [sys.executable, str(LAUNCH), "--mode", mode, "--out", str(out_dir)]
    if workload.seeded:
        launch += ["--sim-seed", str(program_seed(seed))]
    if _prctl is not None:
        _prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    load1 = os.getloadavg()[0]
    stdout_path = run_dir / "stdout"
    with open(stdout_path, "wb") as out, open(run_dir / "stderr", "wb") as err:
        start = time.monotonic()
        timeout_s = RUN_TIMEOUT_S if deadline is None else min(RUN_TIMEOUT_S, deadline - start)
        # A new session, so killing the group also stops pool workers.
        proc = subprocess.Popen(
            [*launch, "--", *workload.argv], stdout=out, stderr=err, cwd=ROOT,
            env=child_env(run_dir / "cache"), start_new_session=True,
            preexec_fn=_die_with_benchmark,
        )
        # Started after the fork: ``preexec_fn`` is unsafe beside threads.
        with SpeedSampler() as sampler:
            status, usage, ended = _wait_run(proc.pid, timeout_s)
        wall_s = ended - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = stdout_path.read_bytes()
    # Reaped children (pool workers) are included, as in ru_maxrss.
    cpu_s = usage.ru_utime + usage.ru_stime
    first_stamp, first_cpu = layers.first_call(out_dir) or (start + wall_s, cpu_s)
    run = Run(
        traced=mode == "trace",
        wall_s=wall_s,
        cpu_s=cpu_s,
        setup_s=first_cpu,
        setup_wall_s=first_stamp - start,
        # ru_maxrss of a reaped child covers its own reaped children.
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        sha256=hashlib.sha256(stdout).hexdigest(),
        events=report_events(workload.name, stdout),
        load1=load1,
        probe_s=median(sampler.samples),
        records=layers.read_records(out_dir) if mode == "trace" else [],
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    return run


def load_references() -> dict:
    path = HERE / "references.json"
    return json.loads(path.read_text(encoding="utf-8"))["workloads"]


def judge(run: Run, reference: dict | None) -> bool:
    """A run is correct only if stdout and exit code match the reference."""
    return (
        reference is not None
        and run.sha256 == reference["sha256"]
        and run.exit_code == reference["exit"]
    )


def tally(plain: list[Run], traced: list[Run], ops: int, reference: dict | None):
    """(attempted, failed) operations over a set of runs.

    A run fails all its operations when its stdout or exit code differs
    from the reference; a traced run also fails when its stdout differs
    from its untraced partner's, since wrappers must not alter output.
    """
    for run in plain + traced:
        run.ok = judge(run, reference)
    for base, traced_run in zip(plain, traced):
        if (traced_run.sha256, traced_run.exit_code) != (base.sha256, base.exit_code):
            traced_run.ok = False
    runs = plain + traced
    return ops * len(runs), ops * sum(1 for run in runs if not run.ok)


def kernel_preflight() -> dict:
    """Build or load the compiled coherence kernel once, before timing."""
    # The same search order the kernel's own build uses.
    compiler = next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)
    # A kernel source change gets a new cache file, so a new file is a build.
    before = set(XDG.glob("jmmw/coherence-*.so"))
    probe = (
        "import json, time, numpy\n"
        "t = time.perf_counter()\n"
        "from repro.memsys.fastpath_coherence import kernel_available\n"
        "ok = kernel_available()\n"
        "print(json.dumps({'ok': ok, 'seconds': time.perf_counter() - t,"
        " 'numpy': numpy.__version__}))\n"
    )
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, cwd=ROOT,
        env=child_env(BUILD / "tmp" / "preflight-cache"), timeout=RUN_TIMEOUT_S,
    )
    info = {"ok": False, "seconds": 0.0, "numpy": "unknown"}
    if result.returncode == 0:
        info.update(json.loads(result.stdout.decode().strip().splitlines()[-1]))
    info["compiler"] = compiler
    state = BUILD / "kernel.json"
    if info["ok"] and set(XDG.glob("jmmw/coherence-*.so")) - before:
        state.write_text(json.dumps({"build_s": info["seconds"]}), encoding="utf-8")
    info["build_s"] = (
        json.loads(state.read_text(encoding="utf-8"))["build_s"] if state.exists() else 0.0
    )
    return info


def degraded_notice(reason: str) -> None:
    banner = "!" * 72
    print(
        f"{banner}\nSCALAR-FALLBACK: {reason}\n"
        "These are scalar-fallback numbers, not the compiled fast path's;\n"
        "do not compare them with fast-path results.\n" + banner,
        file=sys.stderr,
    )
    print("mode: scalar-fallback")


def environment(kernel: dict) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT, text=True
        )
        commit = result.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": kernel["numpy"],
        "compiler": kernel["compiler"],
        "kernel_ok": kernel["ok"],
        "commit": commit,
    }


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Repeat runs until ``seconds`` is spent; returns the result object."""
    start = time.monotonic()
    kernel = kernel_preflight()
    if not kernel["ok"]:
        reason = "no C compiler found" if kernel["compiler"] is None else "kernel build failed"
        degraded_notice(reason)
    reference = load_references().get(workload.name, {}).get(str(program_seed(seed)))
    deadline = start + DEADLINE_S
    setups = [] if traced else [
        run_once(workload, seed, "setup", f"{os.getpid()}-{i}s", deadline)
        for i in range(SETUP_RUNS)
    ]
    plain: list[Run] = []
    traced_runs: list[Run] = []
    rounds = 0
    loop_start = time.monotonic()
    while True:
        rounds += 1
        plain.append(run_once(workload, seed, "plain", f"{os.getpid()}-{rounds}p", deadline))
        if traced:
            traced_runs.append(
                run_once(workload, seed, "trace", f"{os.getpid()}-{rounds}t", deadline)
            )
        now = time.monotonic()
        # Start another round only if it is expected to end within budget.
        if now - start + (now - loop_start) / rounds > seconds:
            break
    runs = plain + traced_runs
    attempted, failed = tally(plain, traced_runs, workload.ops, reference)
    if traced:
        values = traced_metrics(workload, plain, traced_runs, kernel, attempted, failed)
    else:
        values = {
            "norm_cpu_s": median([r.cpu_s * PROBE_NOMINAL_S / r.probe_s for r in plain]),
            "setup_s": median([r.setup_s for r in setups + plain]),
            "peak_rss_mb": median([r.rss_mb for r in plain]),
        }
    spec = load_spec()["per_layer" if traced else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec
        },
    }
    record = {
        "time": time.time(),
        "workload": workload.name,
        "seed": seed,
        "program_seed": program_seed(seed),
        "trace": int(traced),
        "mode": "fast" if kernel["ok"] else "scalar-fallback",
        "kernel_build_s": kernel["build_s"],
        "environment": environment(kernel),
        "setup_runs": [{"setup_s": r.setup_s, "setup_wall_s": r.setup_wall_s} for r in setups],
        "runs": [
            {"traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "setup_s": r.setup_s,
             "setup_wall_s": r.setup_wall_s, "rss_mb": r.rss_mb, "exit": r.exit_code,
             "ok": r.ok, "load1": r.load1, "probe_s": r.probe_s}
            for r in runs
        ],
        "result": result,
    }
    with open(BUILD / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def traced_metrics(workload, plain, traced_runs, kernel, attempted, failed) -> dict:
    """Per-layer medians over the traced runs, plus whole-run figures."""
    per_run = [layers.layer_metrics(r.records, r.wall_s) for r in traced_runs]
    metrics = {name: median([m[name] for m in per_run]) for name in per_run[0]}
    plain_wall = median([r.wall_s for r in plain])
    traced_wall = median([r.wall_s for r in traced_runs])
    sim_refs = median([layers.distinct_trace_refs(r.records) for r in traced_runs])
    metrics["wall_s"] = plain_wall
    metrics["cpu_s"] = median([r.cpu_s for r in plain])
    metrics["setup_wall_s"] = median([r.setup_wall_s for r in plain])
    metrics["trace_overhead_s"] = traced_wall - plain_wall
    metrics["sim_refs_per_s"] = sim_refs / plain_wall
    metrics["lp_events_per_s"] = median([r.events / r.wall_s for r in plain])
    metrics["failed_ratio"] = failed / attempted
    metrics["kernel.build_s"] = kernel["build_s"]
    fast_ratio = metrics["memsys.coherent_fast_ratio"]
    if metrics["memsys.coherent_calls"] > 0 and fast_ratio < 1.0:
        degraded_notice(f"only {fast_ratio:.0%} of coherent replays used the kernel")
    share = metrics["other.self_s"] / traced_wall
    if workload.name in FIGURE_WORKLOADS and share > OTHER_SHARE_BOUND:
        print(
            f"coverage: {share:.0%} of the traced run is unattributed "
            f"(bound {OTHER_SHARE_BOUND:.0%})",
            file=sys.stderr,
        )
    return metrics


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"workload seed; the program runs at {BASE_SEED} + seed % {N_SEEDS}")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Turn termination into an exception, so the running run's process
    # group is killed and reaped on the way out.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, lambda signum, _: sys.exit(128 + signum))
    BUILD.mkdir(parents=True, exist_ok=True)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
