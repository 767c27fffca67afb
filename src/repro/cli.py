"""Command-line interface: ``jmmw`` (Java Middleware Memory Workloads).

Subcommands::

    jmmw figures [IDS...] [--quick] [--jobs N] [--no-cache]
                 [--no-fastpath] [--resume] [--fail-fast]
                 [--check-invariants] [--obs [P]]
                                       reproduce paper figures (default all)
    jmmw characterize WORKLOAD [-p N] [--runs R] [--jobs N] ...
                                       one-call workload characterization
    jmmw bench [--obs [P]]             time each fast path against its
                                       reference (ratio gates; exit 1 when
                                       results differ, 3 when a ratio misses)
    jmmw diffcheck [IDS...] [--refs N]  differentially validate the simulators
                                       against brute-force reference oracles
    jmmw campaign run STUDY [--executor serial|local] [--jobs N]
                 [--reps R] [--quick] [--resume] [--timeout S] ...
                                       run a named study's run table on the
                                       fault-tolerant worker pool
    jmmw campaign status STUDY         cell-level progress from the journal
    jmmw campaign report STUDY         mean ± std report from the journal
    jmmw loadplane [--quick] [--users N...] [--workload W] ...
                                       closed-loop saturation sweep over
                                       the appserver stations
    jmmw info                          inventory: machine, workloads, figures

Campaign exit codes: 0 when every cell completed, 4 when the campaign
finished but degraded (failed, quarantined or missing cells — the
report says exactly which and why), 130 after a drained interrupt
(rerun with ``--resume``), 2 for usage errors.

Observability goes through :mod:`repro.obs`: events and simulator
counters, aggregated across worker processes, print as one table on
*stderr*.  ``--obs`` adds timed pipeline spans; ``--obs PATH`` also
streams events to a fresh JSONL file that ends with the spans and
counters, interrupted runs included.  Stdout stays byte-stable with
instrumentation on or off.

Figure and replica execution goes through :mod:`repro.harness`:
``--jobs N`` fans independent work across N worker processes (results
are bit-identical to serial), and results are cached on disk keyed by
config + code version (``--no-cache`` disables), so stdout stays
byte-stable across serial, parallel and cached runs.
``jmmw figures`` generates each distinct trace once per campaign: the
traces two or more of its figures declare (``trace_specs``) are
shared with workers through the :mod:`repro.harness.traceplane`
plane: one memory-mapped file per trace, all of them removed at
campaign end — including interrupted and crashed runs.

Resilience: every campaign journals completed tasks to a manifest as
they finish, so a run cut down by Ctrl-C, SIGTERM or a crash can be
continued with ``--resume`` — completed work is served back
bit-identically, only the remainder is computed.  An interrupted
campaign drains its in-flight tasks, persists them, and exits 130.
Task failures are summarized on stderr and exit non-zero;
``--fail-fast`` stops dispatching at the first failure.
``--check-invariants`` (or ``JMMW_CHECK=1``) turns on sampled runtime
verification of the simulator's coherence/inclusion/conservation
invariants in every worker.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.config import E6000, SimConfig

FIGURE_MODULES = [
    "fig04_scaling",
    "fig05_modes",
    "fig06_cpi",
    "fig07_datastall",
    "fig08_c2c_ratio",
    "fig09_gc_speedup",
    "fig10_c2c_timeline",
    "fig11_memory_use",
    "fig12_icache",
    "fig13_dcache",
    "fig14_c2c_cdf",
    "fig15_c2c_footprint",
    "fig16_sharedcache",
    "claims",
]


def _figure_ids() -> dict[str, str]:
    return {name.split("_", 1)[0]: name for name in FIGURE_MODULES}


def _apply_env_flags(args: argparse.Namespace) -> None:
    """Apply ``--no-fastpath`` / ``--check-invariants``, then start
    this run's observations.

    Both flags are selected through the environment so worker
    processes inherit them (regardless of start method), and the cache
    keys record both choices.  ``--obs`` needs no environment: every
    unit carries the parent's span switch.
    """
    if getattr(args, "no_fastpath", False):
        from repro.memsys.fastpath import FASTPATH_ENV

        os.environ[FASTPATH_ENV] = "0"
    if getattr(args, "check_invariants", False):
        from repro.memsys.invariants import CHECK_ENV

        os.environ[CHECK_ENV] = "1"
    from repro import obs

    obs.reset()
    obs.enable() if args.obs is not None else obs.disable()
    if args.obs:
        try:
            obs.open_sink(args.obs)
        except OSError as exc:
            print(f"cannot open obs file {args.obs!r}: {exc}", file=sys.stderr)
            raise SystemExit(2) from None


#: The cause each counted kernel decline names on stderr; ``warm`` is
#: silent, since fig10 replays its bins into a warm hierarchy by design.
_FALLBACK_NOTICES = {
    "no-kernel": "the compiled coherence kernel is unavailable (no C compiler?)",
    "unsupported": "the kernel cannot hold the geometry (over 64 L2 caches, "
    "or inclusive L2 lines smaller than L1 lines)",
    "alloc": "the kernel could not allocate its machine state",
}

#: The same for traces whose code bursts ran in the Python reference.
_BURST_FALLBACK_NOTICES = {
    "no-kernel": "the compiled kernel is unavailable (no C compiler?)",
    "no-npyrandom": "numpy's libnpyrandom.a was not found, so the kernel "
    "has no burst step",
}

#: The same for miss-curve sweeps that ran the scalar reference.
_SWEEP_FALLBACK_NOTICES = {
    "no-kernel": "the compiled kernel is unavailable (no C compiler?)",
    "alloc": "the kernel could not allocate the sweep's caches",
}


def _finish_obs(table: bool = True) -> None:
    """End-of-run stderr report: the counter table when ``table`` is set
    or under ``--obs`` (spans first), and one notice per reason that
    made coherent replays, miss-curve sweeps or code bursts run in
    Python instead of in the compiled kernel."""
    from repro import obs
    from repro.memsys.fastpath_coherence import (
        BURST_FALLBACK_COUNTER,
        FALLBACK_COUNTER,
        SWEEP_FALLBACK_COUNTER,
    )

    if table or obs.enabled():
        print(obs.render_summary(), file=sys.stderr)
    for counter, what, causes in (
        (FALLBACK_COUNTER, "coherent replay(s) fell back to the scalar path",
         _FALLBACK_NOTICES),
        (SWEEP_FALLBACK_COUNTER, "miss-curve sweep(s) ran the scalar reference",
         _SWEEP_FALLBACK_NOTICES),
        (BURST_FALLBACK_COUNTER, "trace(s) drew their code bursts in Python",
         _BURST_FALLBACK_NOTICES),
    ):
        for reason, cause in causes.items():
            count = obs.COUNTERS.get(f"{counter}/{reason}")
            if count:
                print(f"note: {count} {what}: {cause}", file=sys.stderr)


def _make_cache(args: argparse.Namespace):
    """Apply the shared flags; the result cache unless ``--no-cache``."""
    from repro.harness import ResultCache, default_cache_dir

    _apply_env_flags(args)
    return None if args.no_cache else ResultCache(default_cache_dir())


def _open_manifest(args: argparse.Namespace, signature: str, path=None):
    """Campaign manifest for this invocation, fresh or resumed.

    The journal lives under the cache directory, named by the campaign
    signature unless ``path`` names it — so two different campaigns
    never collide, and rerunning the same command line finds its own
    journal.
    """
    from repro.harness import CampaignManifest, default_cache_dir

    if path is None:
        path = default_cache_dir() / "campaigns" / f"{signature[:16]}.jsonl"
    if getattr(args, "resume", False):
        manifest = CampaignManifest.open_resume(path, signature)
        if manifest.resumed and manifest.completed:
            print(
                f"resuming campaign: {len(manifest.completed)} task(s) "
                f"already complete",
                file=sys.stderr,
            )
        return manifest
    return CampaignManifest.open_fresh(path, signature)


def _summarize_failures(outcomes) -> int:
    """Per-task failure summary on stderr; returns the failure count."""
    failed = [outcome for outcome in outcomes if not outcome.ok]
    if failed:
        print(f"{len(failed)} task(s) failed:", file=sys.stderr)
        for outcome in failed:
            print(f"  {outcome.failure}", file=sys.stderr)
    return len(failed)


def _finish_interrupted(interrupt, manifest) -> int:
    """Report a drained interrupt and exit 130 (128 + SIGINT)."""
    print(f"{interrupt}", file=sys.stderr)
    print("rerun with --resume to continue from the checkpoint", file=sys.stderr)
    _finish_obs()
    if manifest is not None:
        manifest.close()
    return 130


def cmd_figures(args: argparse.Namespace) -> int:
    """Reproduce the requested figures; non-zero exit on check failures."""
    from repro.errors import CampaignInterrupted
    from repro.figures.common import FIGURE_SIM, QUICK_SIM, figure_checks
    from repro.harness import TracePlane, run_tasks
    from repro.harness.tasks import build_figure_tasks, figures_campaign_signature

    sim = QUICK_SIM if args.quick else FIGURE_SIM
    ids = _figure_ids()
    wanted = args.ids or sorted(ids)
    for fig_id in wanted:
        if fig_id not in ids:
            print(
                f"unknown figure {fig_id!r}; known: {', '.join(sorted(ids))}",
                file=sys.stderr,
            )
            return 2

    cache = _make_cache(args)
    modules = [ids[fig_id] for fig_id in wanted]
    plane = TracePlane()
    manifest = _open_manifest(args, figures_campaign_signature(modules, sim))
    try:
        try:
            # Publishing shared traces comes before run_tasks installs
            # its drain handler, so Ctrl-C here arrives as a plain
            # KeyboardInterrupt, with no task run yet.
            tasks = build_figure_tasks(
                modules, sim, plane=plane, cache=cache, manifest=manifest
            )
        except KeyboardInterrupt:
            from repro import obs

            obs.emit("run/interrupted", completed=0, remaining=len(wanted))
            raise CampaignInterrupted(0, tuple(wanted)) from None
        outcomes = run_tasks(
            tasks,
            jobs=args.jobs,
            cache=cache,
            manifest=manifest,
            fail_fast=args.fail_fast,
            interruptible=True,
            plane=plane,
        )
    except CampaignInterrupted as interrupt:
        return _finish_interrupted(interrupt, manifest)
    finally:
        # Campaign over (or interrupted): every trace file this
        # invocation published is removed here, whatever happened to
        # the workers.
        plane.close()

    failures = 0
    for fig_id, outcome in zip(wanted, outcomes):
        if not outcome.ok:
            print(f"=== {fig_id}: FAILED to run ===")
            print(f"  {outcome.failure}")
            print()
            continue
        print(outcome.value.render())
        for claim, ok in figure_checks(ids[fig_id], outcome.value):
            print(f'  [{"ok" if ok else "FAIL"}] {claim}')
            failures += 0 if ok else 1
        print()
    errors = _summarize_failures(outcomes)
    _finish_obs()
    manifest.close()
    return 1 if failures or errors else 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """Print the headline characterization for one workload."""
    from repro.core.characterize import characterize

    sim = None
    if args.quick:
        sim = SimConfig(seed=1234, refs_per_proc=80_000, warmup_fraction=0.5)

    if args.runs == 1:
        _apply_env_flags(args)
        report = characterize(args.workload, n_procs=args.procs, sim=sim)
        print(report.render())
        _finish_obs(table=False)
        return 0

    # Multi-run characterization: R reps of a one-point campaign, on
    # the --jobs pool, reported Alameldeen-&-Wood style (mean ± std).
    # A replica that fails is left out and listed on stderr (exit 1).
    from repro.campaign import (
        CampaignPolicy,
        LocalPoolExecutor,
        SerialExecutor,
        run_campaign,
    )
    from repro.campaign.report import degradation_line, summarize
    from repro.campaign.studies import characterize_spec
    from repro.core.report import render_table
    from repro.errors import CampaignInterrupted
    from repro.figures.common import FIGURE_SIM
    from repro.harness import FaultPolicy

    spec = characterize_spec(
        args.workload, args.procs, args.runs,
        sim if sim is not None else FIGURE_SIM,
    )
    cache = _make_cache(args)
    executor = (
        SerialExecutor() if args.jobs == 1
        else LocalPoolExecutor(args.jobs, max_respawns=args.runs)
    )
    manifest = _open_manifest(args, spec.signature())
    try:
        result = run_campaign(
            spec, executor, policy=CampaignPolicy(faults=FaultPolicy()),
            manifest=manifest, interruptible=True, cache=cache,
            fail_fast=args.fail_fast,
        )
    except CampaignInterrupted as interrupt:
        return _finish_interrupted(interrupt, manifest)
    failed = [outcome for outcome in result.outcomes if not outcome.ok]
    if len(failed) == args.runs:
        print(
            f"characterization failed: all {args.runs} replicas failed; "
            f"first failure: {degradation_line(failed[0])}",
            file=sys.stderr,
        )
    else:
        print(
            f"{args.workload} on {args.procs} processors (E6000-style), "
            f"{args.runs - len(failed)}/{args.runs} replicas"
        )
        rows = [row[1:] for row in summarize(result)]  # one point: no point column
        print(render_table(["metric", "mean", "std", "n"], rows))
        if failed:
            print(f"{len(failed)} replica(s) failed:", file=sys.stderr)
            for outcome in failed:
                print(f"  {degradation_line(outcome)}", file=sys.stderr)
    _finish_obs()
    manifest.close()
    return 1 if failed else 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the ratio gates; exit 1 when results differ, 3 when a
    median misses its bound."""
    from repro.obs import bench

    _apply_env_flags(args)
    results = bench.run_bench()
    print(bench.render(results))
    _finish_obs(table=False)
    for result in results:
        if result.status.startswith("FAIL"):
            print(f"bench: gate {result.gate.name!r}: {result.status}", file=sys.stderr)
    return bench.exit_code(results)


def cmd_diffcheck(args: argparse.Namespace) -> int:
    """Differentially validate the simulators; exit 1 on divergence."""
    from repro.core.config import SimConfig as _SimConfig
    from repro.errors import ConfigError
    from repro.obs.diffcheck import DIFF_SIM, run_all_figure_diffchecks

    _apply_env_flags(args)
    sim = DIFF_SIM
    if args.refs is not None:
        try:
            sim = _SimConfig(
                seed=DIFF_SIM.seed,
                refs_per_proc=args.refs,
                warmup_fraction=DIFF_SIM.warmup_fraction,
            )
        except ConfigError as exc:
            print(f"diffcheck: {exc}", file=sys.stderr)
            return 2
    try:
        reports = run_all_figure_diffchecks(args.ids or None, sim=sim)
    except ConfigError as exc:
        print(f"diffcheck: {exc}", file=sys.stderr)
        return 2
    diverged = 0
    for report in reports:
        print(report.render())
        diverged += 0 if report.ok else 1
    _finish_obs(table=False)
    if diverged:
        print(f"diffcheck: {diverged} configuration(s) diverged", file=sys.stderr)
        return 1
    return 0


#: Exit code for a campaign that finished but with degraded results.
EXIT_PARTIAL_CAMPAIGN = 4


def _make_campaign_executor(args: argparse.Namespace):
    from repro.campaign import LocalPoolExecutor, SerialExecutor

    if args.executor == "serial":
        return SerialExecutor()
    return LocalPoolExecutor(args.jobs, max_respawns=args.max_respawns)


def _campaign_spec(args: argparse.Namespace):
    """Resolve the study; prints and exits 2 for an unknown name."""
    from repro.campaign.studies import get_study
    from repro.errors import ConfigError

    try:
        return get_study(args.study, reps=args.reps, quick=args.quick)
    except ConfigError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """Run a study's full run table; exit 0 only when every cell is ok."""
    from repro.campaign import CampaignPolicy, run_campaign
    from repro.campaign.report import render
    from repro.campaign.state import journal_path
    from repro.errors import CampaignInterrupted, ConfigError
    from repro.harness import FaultPolicy

    spec = _campaign_spec(args)
    _apply_env_flags(args)
    try:
        policy = CampaignPolicy(
            faults=FaultPolicy(
                timeout_s=args.timeout,
                max_attempts=args.max_attempts,
                backoff_s=0.05,
                backoff_max_s=2.0,
                jitter=0.5,
                retry_timeouts=args.retry_timeouts,
            ),
            poison_k=args.poison_k,
        )
        executor = _make_campaign_executor(args)
    except ConfigError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    manifest = _open_manifest(args, spec.signature(), journal_path(args.study))
    try:
        result = run_campaign(
            spec, executor, policy=policy, manifest=manifest, interruptible=True,
        )
    except CampaignInterrupted as interrupt:
        return _finish_interrupted(interrupt, manifest)
    print(render(result))
    _finish_obs()
    manifest.close()
    return 0 if result.complete else EXIT_PARTIAL_CAMPAIGN


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """Cell-level progress, read-only from the journal (never truncates)."""
    from collections import Counter

    from repro.campaign.state import journal_path, result_from_journal
    from repro.harness.checkpoint import read_journal, resumable

    spec = _campaign_spec(args)
    path = journal_path(args.study)
    header, _ = read_journal(path)
    result = result_from_journal(spec, path)
    counts = Counter(outcome.status for outcome in result.outcomes)
    print(f"campaign {spec.name!r}: {spec.table.shape()}")
    print(f"journal: {path}")
    if header is None:
        print("signature: (no journal; run `jmmw campaign run` first)")
    elif resumable(header, spec.signature()):
        print("signature: match (resumable)")
    else:
        print(
            "signature: MISMATCH (different code version, reps, config or "
            "journal format; every run starts fresh, --resume included)"
        )
    print(
        "cells: "
        + ", ".join(
            f"{counts.get(status, 0)} {status}"
            for status in ("ok", "failed", "poisoned", "missing", "pending")
        )
    )
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    """Render the full report from the journal; exit 4 unless complete."""
    from repro.campaign.report import render
    from repro.campaign.state import journal_path, result_from_journal

    spec = _campaign_spec(args)
    result = result_from_journal(spec, journal_path(args.study))
    print(render(result))
    return 0 if result.complete else EXIT_PARTIAL_CAMPAIGN


def cmd_loadplane(args: argparse.Namespace) -> int:
    """Run a load-plane saturation sweep and print the report.

    The ladder's points are one :func:`repro.harness.run_tasks` batch,
    journalled for ``--resume``; Ctrl-C or SIGTERM drains the points in
    flight.  Exit codes: 0 report printed, 2 bad configuration, 4 one
    or more sweep points failed, 130 drained interrupt.
    """
    from repro.errors import CampaignInterrupted, ConfigError, HarnessError
    from repro.harness import content_key
    from repro.loadplane import FULL_POPULATIONS, QUICK_POPULATIONS, SweepConfig
    from repro.loadplane.sweep import run_saturation

    populations = tuple(args.users) if args.users else (
        QUICK_POPULATIONS if args.quick else FULL_POPULATIONS
    )
    try:
        sweep = SweepConfig(
            populations=populations,
            threads=args.threads,
            connections=args.connections,
            service_s=args.service_ms / 1e3,
            think_s=args.think_s,
            workload=args.workload,
            windows=args.windows,
            window_s=args.window_s,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"bad sweep configuration: {exc}", file=sys.stderr)
        return 2
    cache = _make_cache(args)
    signature = content_key(
        kind="loadplane/sweep",
        populations=list(sweep.populations),
        threads=sweep.threads,
        connections=sweep.connections,
        service_s=sweep.service_s,
        think_s=sweep.think_s,
        workload=sweep.workload,
        windows=sweep.windows,
        window_s=sweep.window_s,
        warmup_fraction=sweep.warmup_fraction,
        seed=sweep.seed,
    )
    manifest = _open_manifest(args, signature)
    try:
        report = run_saturation(
            sweep,
            jobs=args.jobs,
            cache=cache,
            manifest=manifest,
            interruptible=True,
        )
    except CampaignInterrupted as interrupt:
        return _finish_interrupted(interrupt, manifest)
    except HarnessError as exc:
        print(f"{exc}", file=sys.stderr)
        _finish_obs()
        manifest.close()
        return 4
    print(report.render(plot=not args.no_plot))
    _finish_obs()
    manifest.close()
    return 0


def cmd_info(_: argparse.Namespace) -> int:
    """Print the modeled system inventory."""
    print("Reproduction of 'Memory System Behavior of Java-Based Middleware'")
    print("(Karlsson, Moore, Hagersten & Wood, HPCA 2003)\n")
    print(f"modeled machine: {E6000.describe()}")
    print("workloads: specjbb (SPECjbb2000), ecperf (ECperf middle tier)")
    print("figures:", ", ".join(sorted(_figure_ids())))
    return 0


def _add_obs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--obs", nargs="?", const="", default=None, metavar="PATH",
        help="also record pipeline spans (span table added to the stderr "
        "summary); with PATH, stream events to a fresh JSONL file that "
        "ends with the spans and final counters",
    )


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_batch_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs``, ``--no-cache``, ``--resume`` and ``--obs``: the flags
    every journalled batch takes (``jmmw loadplane`` takes only these)."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, metavar="N",
        help="worker processes for independent runs (default 1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute everything; skip the on-disk result cache",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted campaign from its manifest; "
        "completed tasks are served back bit-identically",
    )
    _add_obs_flag(parser)


def _add_harness_flags(parser: argparse.ArgumentParser) -> None:
    """The batch flags plus the simulator's switches and ``--fail-fast``."""
    _add_batch_flags(parser)
    parser.add_argument(
        "--no-fastpath", action="store_true",
        help="run the Python reference of each of the compiled kernel's "
        "three steps instead of the kernel: coherent hierarchy replay, "
        "the miss-curve sweep and instruction code bursts (results are "
        "bit-identical; same as JMMW_FASTPATH=0)",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="stop dispatching new tasks after the first failure",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="verify simulator invariants (coherence legality, L1/L2 "
        "inclusion, stats conservation) on a sampled schedule while "
        "running; same as JMMW_CHECK=1",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``jmmw`` argument parser."""
    parser = argparse.ArgumentParser(prog="jmmw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce paper figures")
    figures.add_argument("ids", nargs="*", help="figure ids, e.g. fig08 fig16")
    figures.add_argument(
        "--quick", action="store_true", help="reduced simulation effort"
    )
    _add_harness_flags(figures)
    figures.set_defaults(fn=cmd_figures)

    character = sub.add_parser("characterize", help="characterize one workload")
    character.add_argument("workload", choices=["specjbb", "ecperf"])
    character.add_argument("-p", "--procs", type=_positive_int, default=8)
    character.add_argument("--quick", action="store_true")
    character.add_argument(
        "-n", "--runs", type=_positive_int, default=1, metavar="R",
        help="replicas for mean ± std reporting (default 1)",
    )
    _add_harness_flags(character)
    character.set_defaults(fn=cmd_characterize)

    bench = sub.add_parser(
        "bench",
        help="time each fast path against its reference; fail when a "
        "median speedup misses its bound or the results differ",
    )
    _add_obs_flag(bench)
    bench.set_defaults(fn=cmd_bench)

    diffcheck = sub.add_parser(
        "diffcheck",
        help="validate simulators against brute-force reference oracles",
    )
    diffcheck.add_argument(
        "ids", nargs="*",
        help="figure ids to validate, e.g. fig12 fig16 (default: all 13)",
    )
    diffcheck.add_argument(
        "--refs", type=int, default=None, metavar="N",
        help="references per processor for the replayed traces "
        "(default 4000; oracles are intentionally naive, keep it small)",
    )
    diffcheck.add_argument(
        "--no-fastpath", action="store_true", help=argparse.SUPPRESS
    )
    _add_obs_flag(diffcheck)
    diffcheck.set_defaults(fn=cmd_diffcheck, check_invariants=False)

    campaign = sub.add_parser(
        "campaign",
        help="fault-tolerant run-table campaigns on the worker pool",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def _add_study_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "study", help="registered study name (e.g. smoke, ablation)"
        )
        sub_parser.add_argument(
            "--reps", type=int, default=2, metavar="R",
            help="repetitions per table point (default 2); part of the "
            "campaign signature, so status/report need the same value",
        )
        sub_parser.add_argument(
            "--quick", action="store_true",
            help="reduced per-cell simulation effort (also in the signature)",
        )

    run = campaign_sub.add_parser("run", help="run a study's full run table")
    _add_study_flags(run)
    run.add_argument(
        "--executor", choices=["serial", "local"], default="local",
        help="execution backend (default local, the --jobs worker pool; "
        "serial runs in-process; results are bit-identical)",
    )
    run.add_argument(
        "--jobs", type=_positive_int, default=2, metavar="N",
        help="worker processes for the local executor (default 2)",
    )
    run.add_argument(
        "--max-respawns", type=int, default=None, metavar="N",
        help="dead-worker respawn budget before the campaign degrades "
        "(default 2x jobs)",
    )
    run.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="per-cell attempt budget (default 3)",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-cell wall-clock budget in seconds: a pool worker past "
        "it is killed and its cell fails unless --retry-timeouts "
        "(default none)",
    )
    run.add_argument(
        "--retry-timeouts", action="store_true",
        help="retry timed-out cells under the attempt budget",
    )
    run.add_argument(
        "--poison-k", type=int, default=2, metavar="K",
        help="consecutive worker kills that quarantine a cell (default 2)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="continue from the study's journal; completed cells are "
        "served back bit-identically",
    )
    run.add_argument(
        "--no-fastpath", action="store_true", help=argparse.SUPPRESS
    )
    _add_obs_flag(run)
    run.set_defaults(fn=cmd_campaign_run, check_invariants=False)

    status = campaign_sub.add_parser(
        "status", help="cell-level progress from the journal (read-only)"
    )
    _add_study_flags(status)
    status.set_defaults(fn=cmd_campaign_status)

    report = campaign_sub.add_parser(
        "report", help="mean ± std report from the journal (read-only)"
    )
    _add_study_flags(report)
    report.set_defaults(fn=cmd_campaign_report)

    loadplane = sub.add_parser(
        "loadplane",
        help="closed-loop saturation sweep over the appserver stations",
    )
    loadplane.add_argument(
        "--quick", action="store_true",
        help="small population ladder (seconds; crosses the default knee)",
    )
    loadplane.add_argument(
        "--users", type=int, nargs="*", default=None, metavar="N",
        help="explicit population ladder (overrides the quick/full default)",
    )
    loadplane.add_argument(
        "--workload", choices=["uniform", "ecperf", "specjbb"],
        default="uniform",
        help="transaction mix shaping per-type service demand (default "
        "uniform: the single-class mix the analytic oracles match exactly)",
    )
    loadplane.add_argument("--threads", type=int, default=8, metavar="C",
                           help="worker thread pool size (default 8)")
    loadplane.add_argument("--connections", type=int, default=8, metavar="C",
                           help="DB connection pool size (default 8)")
    loadplane.add_argument(
        "--service-ms", type=float, default=20.0, metavar="MS",
        help="mix-mean service demand per operation (default 20 ms)",
    )
    loadplane.add_argument(
        "--think-s", type=float, default=1.2, metavar="S",
        help="mean exponential think time (default 1.2 s, the driver "
        "model's)",
    )
    loadplane.add_argument("--windows", type=int, default=8, metavar="W",
                           help="measurement windows per point (default 8)")
    loadplane.add_argument(
        "--window-s", type=float, default=2.0, metavar="S",
        help="window length in simulated seconds (default 2.0)",
    )
    loadplane.add_argument("--seed", type=int, default=1234)
    loadplane.add_argument(
        "--no-plot", action="store_true",
        help="omit the ASCII throughput curve from the report",
    )
    _add_batch_flags(loadplane)
    loadplane.set_defaults(fn=cmd_loadplane)

    info = sub.add_parser("info", help="show the modeled system inventory")
    info.set_defaults(fn=cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro import obs

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    finally:
        # Every exit path, interrupts and errors included, completes the
        # --obs PATH file with the spans and final counters.
        if obs.close_sink():
            print(f"obs: wrote {args.obs}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
