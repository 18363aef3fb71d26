"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

=============  ========================================================
``boot``       boot a Veil CVM and print its configuration + boot cost
``micro``      section 9.1 microbenchmarks (boot / switch / background)
``cs1``        module load/unload overhead under VeilS-KCI
``fig4``       enclave syscall redirection microbenchmarks
``fig5``       shielded real-world program overhead
``fig6``       secure auditing overhead
``attacks``    Tables 1 & 2 + section 8.3 attack suites
``ltp``        LTP-style SDK conformance summary
``lint``       veil-lint trust-boundary static analysis of the tree
``flow``       veil-flow secret-flow + determinism analysis (baseline)
``trace``      run a workload under veil-trace, export a Perfetto trace
``cluster``    boot a veil-fleet: N attested replicas behind a front end
``chaos``      torture a fleet with a seeded fault schedule (veil-chaos)
``scope``      fleet-wide distributed tracing + latency telemetry
``surge``      open-loop load generation on the event scheduler
``export``     the evaluation's rows as JSON/CSV files
``ablations``  design-choice ablation experiments
``all``        the paper's evaluation: ``micro``, ``cs1``, ``fig4``-``6``,
               ``attacks``, ``ltp`` and ``ablations`` at their defaults
=============  ========================================================
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import evaluation
from .bench.charts import chart_fig4, chart_fig5, chart_fig6
from .bench.harness import (BOOT_MEMORY_MB, CS1_REPETITIONS,
                            FIG4_ITERATIONS, SWITCH_ROUND_TRIPS)
from .core import VeilConfig, boot_veil_system
from .errors import SimulationError
from .hw.cycles import cycles_to_seconds


def _boot_sized(memory_mb: int, boot):
    """Run ``boot()``; a guest too small for Veil's boot footprint
    (about 6 MiB) is refused as a size, not a traceback."""
    try:
        return boot()
    except MemoryError as short:
        raise SimulationError(
            f"--memory-mb {memory_mb} is too small to boot ({short})"
        ) from None


def _cmd_boot(args) -> None:
    config = VeilConfig(memory_bytes=args.memory_mb * 1024 * 1024,
                        num_cores=args.cores)
    system = _boot_sized(args.memory_mb, lambda: boot_veil_system(config))
    print(system.machine.describe())
    print(f"services: {', '.join(sorted(system.veilmon.services))}")
    print(f"protected pages: {len(system.veilmon.protected_ppns)}")
    delta = system.veil_boot_delta
    print(f"Veil boot work: {delta.total:,} cycles "
          f"({cycles_to_seconds(delta.total) * 1000:.1f} simulated ms), "
          f"{100 * delta.category('rmpadjust') / delta.total:.0f}% in "
          "RMPADJUST")
    user = system.attest_and_connect()
    print(f"attestation: OK (measurement "
          f"{system.expected_measurement().hex()[:16]}...)")


def _print_section(section) -> None:
    """Print one section of the evaluation; exit 1 if it saw a fault."""
    print(section.text)
    if not section.ok:
        sys.exit(1)


def _cmd_micro(args) -> None:
    _print_section(_boot_sized(args.memory_mb, lambda: evaluation.micro(
        args.memory_mb, args.switches)))


def _cmd_cs1(args) -> None:
    _print_section(evaluation.cs1(args.reps))


def _cmd_fig4(args) -> None:
    section = evaluation.fig4(args.iterations)
    print(chart_fig4(section.rows["fig4"]) if args.chart else section.text)


def _cmd_fig5(args) -> None:
    section = evaluation.fig5()
    print(chart_fig5(section.rows["fig5"]) if args.chart else section.text)


def _cmd_fig6(args) -> None:
    section = evaluation.fig6()
    print(chart_fig6(section.rows["fig6"]) if args.chart else section.text)


def _cmd_attacks(args) -> None:
    _print_section(evaluation.attacks())


def _cmd_ltp(args) -> None:
    section = evaluation.ltp()
    print(section.text)
    if args.verbose:
        for row in section.rows["ltp"]:
            print(f"  {row['syscall']:<20} {row['passed']} passed / "
                  f"{row['failed']} failed")


def _cmd_analysis(args) -> None:
    """``lint``/``flow``: the rest of the command line goes to the
    analysis tool's own parser (``repro lint --help`` prints its help)."""
    from .analysis import cli as analysis_cli
    run = analysis_cli.run if args.command == "lint" else \
        analysis_cli.run_flow
    code = run(args.analysis_argv)
    if code:
        sys.exit(code)


def _cmd_trace(args) -> None:
    from .trace import Tracer, render_summary, write_chrome_trace
    from .workloads.trace_demo import run_trace_workload_system
    tracer = Tracer(capacity=args.capacity)
    _tracer, system = run_trace_workload_system(args.workload,
                                               tracer=tracer)
    # Export before publishing the TLB counters: the Chrome trace embeds
    # the metrics registry, and the exported trace holds model state only
    # (the `trace syscalls --out` golden digest pins it).  The text
    # summary below then gets the counters.
    if args.out:
        write_chrome_trace(tracer, args.out)
    system.machine.publish_tlb_metrics(tracer.metrics)
    print(render_summary(tracer, top=args.top))
    if args.out:
        print(f"\nwrote {tracer.recorded - tracer.dropped} events to "
              f"{args.out} (load in Perfetto / chrome://tracing)")


def _cmd_cluster(args) -> None:
    from .chaos import ChaosConfig, run_chaos_cluster
    from .trace import Tracer, write_chrome_trace
    try:
        tampered = tuple(int(i) for i in args.tampered.split(",") if i)
    except ValueError:
        raise SimulationError(
            f"--tampered takes comma-separated replica indices, got "
            f"{args.tampered!r}") from None
    tracer = Tracer(capacity=args.capacity)
    run = run_chaos_cluster(ChaosConfig(
        profile="none", replicas=args.replicas, requests=args.requests,
        workload=args.workload, policy=args.policy,
        shielded=args.shielded, tampered=tampered), tracer=tracer)
    result, inv = run.cluster, run.invariants
    print(f"veil-fleet: {args.replicas} replicas, policy {args.policy}, "
          f"workload {args.workload}")
    rule = "-" * 64
    print(rule)
    print(f"{'replica':<10}{'requests':>10}{'handshake':>14}"
          f"{'total cycles':>16}")
    print(rule)
    for row in result.summary_rows():
        print(f"{row['replica']:<10}{row['requests']:>10,}"
              f"{row['handshake_cycles']:>14,}"
              f"{row['total_cycles']:>16,}")
    print(rule)
    for rejected in result.rejected:
        print(f"REJECTED {rejected.replica}: {rejected.reason}")
    print(f"routed {result.requests_routed:,} requests, aggregate "
          f"{result.throughput_rps:,.0f} req/s "
          f"(makespan {cycles_to_seconds(result.makespan_cycles) * 1000:.2f}"
          " simulated ms)")
    # The verdict comes from the invariant sweep: when the audit raises,
    # the run's own report is an empty (vacuously verified) one.
    print(f"audit: {result.audit.total_entries:,} records pulled from "
          f"{len(result.audit.replicas)} replicas, chains "
          f"{'OK' if inv.audit_verified else 'MISMATCH'}")
    if args.out:
        write_chrome_trace(tracer, args.out)
        print(f"wrote {tracer.recorded - tracer.dropped} events to "
              f"{args.out} (load in Perfetto / chrome://tracing)")
    for violation in inv.violations:
        print(f"VIOLATION: {violation}")
    if not (inv.ok and inv.audit_verified):
        sys.exit(1)


def _cmd_chaos(args) -> None:
    from .chaos import ChaosConfig, run_chaos_cluster
    config = ChaosConfig(seed=args.seed, profile=args.schedule,
                         replicas=args.replicas, requests=args.requests,
                         workload=args.workload, policy=args.policy)
    result = run_chaos_cluster(config)
    profile = result.profile
    print(f"veil-chaos: schedule {profile.name!r}, seed {args.seed}, "
          f"{args.replicas} replicas, {args.requests} requests")
    rates = (f"drop={profile.drop:.0%} dup={profile.duplicate:.0%} "
             f"delay={profile.delay:.0%} corrupt={profile.corrupt:.0%} "
             f"crash_every={profile.crash_period or '-'} "
             f"spurious_every={profile.spurious_period or '-'}")
    print(f"  faults: {rates}")
    print(f"  completed {result.completed}/{args.requests} requests "
          f"({result.failed} failed, {result.retries} retried "
          "attempts)")
    crashed = ", ".join(f"{name}x{count}"
                        for name, count in result.crashes.items()
                        if count)
    print(f"  crashes: {crashed or 'none'}")
    print(f"  quarantines: {result.quarantines}, re-attestations: "
          f"{result.reattestations}")
    for rejected in result.cluster.rejected:
        print(f"  REJECTED {rejected.replica}: {rejected.reason}")
    print(f"  injected events: {len(result.events)} "
          "(replayable from the seed)")
    inv = result.invariants
    audit = ("chains OK" if inv.audit_verified else
             f"tampering detected ({inv.detection_reason})"
             if inv.tampering_detected else "NOT VERIFIED")
    print(f"  invariants: {inv.messages_scanned} fabric messages "
          f"scanned, no plaintext; audit {audit}")
    if not inv.ok:
        for violation in inv.violations:
            print(f"  VIOLATION: {violation}")
        sys.exit(1)


def _cmd_scope(args) -> None:
    from .chaos import ChaosConfig, run_chaos_cluster
    from .scope import (FleetScope, render_scope_summary,
                        write_merged_trace, write_scope_json)
    from .trace import Tracer
    tracer = Tracer(capacity=args.capacity)
    scope = FleetScope()
    result = run_chaos_cluster(ChaosConfig(
        seed=args.seed, profile=args.schedule, replicas=args.replicas,
        requests=args.requests, workload=args.service, policy=args.policy),
        tracer=tracer, scope=scope)
    print(f"veil-scope: {args.replicas} replicas, {args.requests} "
          f"requests, schedule {args.schedule!r}" +
          (f", seed {args.seed}" if args.schedule != "none" else ""))
    print()
    print(render_scope_summary(scope))
    if args.json:
        write_scope_json(scope, args.json)
        print(f"\nwrote metrics snapshot to {args.json}")
    if args.out:
        from .scope import merged_chrome_trace
        doc = merged_chrome_trace(tracer, scope)
        write_merged_trace(tracer, scope, args.out)
        print(f"wrote {len(doc['traceEvents'])} merged fleet events to "
              f"{args.out} (load in Perfetto / chrome://tracing)")
    if not result.invariants.ok:
        for violation in result.invariants.violations:
            print(f"VIOLATION: {violation}")
        sys.exit(1)


def _cmd_surge(args) -> None:
    import json as _json
    from .bench.surge import (render_surge_bench, run_surge_bench,
                              smoke_summary, write_surge_json)
    from .hw.cycles import CLOCK_HZ
    from .surge import SurgeConfig, run_surge
    from .surge.runner import SLOTS
    if args.smoke:
        summary = smoke_summary(seed=args.seed)
        print(_json.dumps(summary, indent=2, sort_keys=True))
        if args.json:
            write_surge_json(summary, args.json)
        return
    if args.knee:
        bench = run_surge_bench(seed=args.seed, replicas=args.replicas,
                                requests=args.requests)
        print(render_surge_bench(bench))
        if args.json:
            write_surge_json(bench.as_dict(), args.json)
            print(f"wrote {args.json}")
        if not bench.replay_ok:
            print("FAIL: same-seed smoke runs produced different "
                  "summaries")
            sys.exit(1)
        if args.min_inflight and \
                bench.flagship["max_in_flight"] < args.min_inflight:
            print(f"FAIL: flagship peak in-flight "
                  f"{bench.flagship['max_in_flight']} is below the "
                  f"--min-inflight floor {args.min_inflight}")
            sys.exit(1)
        return
    result = run_surge(SurgeConfig(
        seed=args.seed, arrivals=args.arrivals, replicas=args.replicas,
        requests=args.requests, load=args.load, workload=args.workload,
        policy=args.policy, admit_limit=args.admit_limit,
        min_active=args.min_active))
    cfg = result.config
    print(f"veil-surge: {cfg.arrivals} arrivals, load {cfg.load}, "
          f"{cfg.replicas} replicas x {SLOTS} slots, seed "
          f"{cfg.seed}")
    print(f"  requests: {result.completed:,} completed, "
          f"{result.shed:,} shed, {result.failed:,} failed of "
          f"{result.requests:,} offered")
    print(f"  concurrency: max {result.max_in_flight:,} in flight, "
          f"peak queue depth {result.peak_queue_depth:,}")
    if result.scale_events:
        ups = sum(1 for e in result.scale_events if e[1] == "up")
        print(f"  autoscaler: {ups} scale-ups, "
              f"{len(result.scale_events) - ups} scale-downs, high "
              f"water {result.active_high_water} active")
    makespan_ms = result.makespan_cycles / CLOCK_HZ * 1000
    print(f"  throughput: {result.throughput_rps:,.0f} req/s achieved "
          f"vs {result.offered_rps:,.0f} req/s offered "
          f"(makespan {makespan_ms:.2f} simulated ms)")
    for klass in sorted(result.latency):
        pct = result.latency[klass]
        print(f"  {klass:<8} p50={pct['p50']:,} p95={pct['p95']:,} "
              f"p99={pct['p99']:,} cycles")
    if args.json:
        write_surge_json(result.summary_dict(), args.json)
        print(f"wrote {args.json}")
    if args.min_inflight and result.max_in_flight < args.min_inflight:
        print(f"FAIL: peak in-flight {result.max_in_flight} is below "
              f"the --min-inflight floor {args.min_inflight}")
        sys.exit(1)


def _cmd_ablations(args) -> None:
    _print_section(evaluation.ablations())


def _cmd_export(args) -> None:
    from .bench.export import export_all
    written = export_all(args.out, evaluation.run_evaluation())
    for name, path in sorted(written.items()):
        print(f"{name:<18} -> {path}")


def _cmd_all(args) -> None:
    """Print every section of the evaluation, each followed by a blank
    line: the per-experiment commands' outputs at their defaults."""
    ok = True
    for experiment in evaluation.EXPERIMENTS:
        section = experiment()
        print(section.text)
        print()
        ok = ok and section.ok
    if not ok:
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Veil (ASPLOS'23) reproduction experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    from .chaos.plan import PROFILES
    from .cluster.frontend import POLICIES
    from .cluster.replica import WORKLOADS

    boot = sub.add_parser("boot", help="boot a Veil CVM")
    boot.add_argument("--memory-mb", type=int, default=64)
    boot.add_argument("--cores", type=int, default=2)
    boot.set_defaults(fn=_cmd_boot)

    micro = sub.add_parser("micro", help="section 9.1 microbenchmarks")
    micro.add_argument("--memory-mb", type=int, default=BOOT_MEMORY_MB)
    micro.add_argument("--switches", type=int, default=SWITCH_ROUND_TRIPS)
    micro.set_defaults(fn=_cmd_micro)

    cs1 = sub.add_parser("cs1", help="module load/unload overhead")
    cs1.add_argument("--reps", type=int, default=CS1_REPETITIONS)
    cs1.set_defaults(fn=_cmd_cs1)

    fig4 = sub.add_parser("fig4", help="enclave syscall microbenchmarks")
    fig4.add_argument("--iterations", type=int, default=FIG4_ITERATIONS)
    fig4.add_argument("--chart", action="store_true",
                      help="draw an ASCII bar chart instead of a table")
    fig4.set_defaults(fn=_cmd_fig4)

    fig5 = sub.add_parser("fig5", help="shielded program overhead")
    fig5.add_argument("--chart", action="store_true")
    fig5.set_defaults(fn=_cmd_fig5)
    fig6 = sub.add_parser("fig6", help="audit overhead")
    fig6.add_argument("--chart", action="store_true")
    fig6.set_defaults(fn=_cmd_fig6)
    sub.add_parser("attacks",
                   help="security validation suites").set_defaults(
        fn=_cmd_attacks)

    ltp = sub.add_parser("ltp", help="SDK conformance summary")
    ltp.add_argument("--verbose", action="store_true")
    ltp.set_defaults(fn=_cmd_ltp)

    # The analysis tool parses its own flags (repro.analysis.cli).
    sub.add_parser("lint", add_help=False,
                   help="veil-lint trust-boundary analysis").set_defaults(
        fn=_cmd_analysis)
    sub.add_parser("flow", add_help=False,
                   help="veil-flow secret-flow + determinism analysis"
                   ).set_defaults(fn=_cmd_analysis)

    trace = sub.add_parser(
        "trace", help="run a workload under veil-trace")
    from .workloads.trace_demo import TRACE_WORKLOADS
    trace.add_argument("workload", choices=sorted(TRACE_WORKLOADS),
                       help="which demo workload to trace")
    trace.add_argument("--out", default=None,
                       help="write a Chrome trace-event JSON file")
    trace.add_argument("--capacity", type=int, default=65536,
                       help="tracer ring-buffer capacity (events)")
    trace.add_argument("--top", type=int, default=10,
                       help="span kinds to show in the summary table")
    trace.set_defaults(fn=_cmd_trace)

    cluster = sub.add_parser(
        "cluster", help="boot an attested multi-CVM fleet")
    cluster.add_argument("--replicas", type=int, default=2,
                         help="fleet size (independent Veil CVMs)")
    cluster.add_argument("--requests", type=int, default=200,
                         help="closed-loop requests through the front end")
    cluster.add_argument("--policy", default="least-outstanding",
                         choices=tuple(POLICIES))
    cluster.add_argument("--workload", default="memcached",
                         choices=WORKLOADS)
    cluster.add_argument("--shielded", action="store_true",
                         help="host replica handlers inside VeilS-ENC "
                              "enclaves")
    cluster.add_argument("--tampered", default="",
                         help="comma-separated replica indices booted "
                              "from a tampered image")
    cluster.add_argument("--out", default=None,
                         help="write a Chrome trace-event JSON file")
    cluster.add_argument("--capacity", type=int, default=65536,
                         help="tracer ring-buffer capacity (events)")
    cluster.set_defaults(fn=_cmd_cluster)

    chaos = sub.add_parser(
        "chaos", help="fault-inject a fleet and check invariants")
    chaos.add_argument("--seed", type=int, default=1,
                       help="fault-schedule seed (replayable)")
    chaos.add_argument("--schedule", default="mayhem",
                       choices=sorted(PROFILES),
                       help="named fault profile to inject ('none' for "
                            "a clean fleet)")
    chaos.add_argument("--replicas", type=int, default=3)
    chaos.add_argument("--requests", type=int, default=48)
    chaos.add_argument("--policy", default="least-outstanding",
                       choices=tuple(POLICIES))
    chaos.add_argument("--workload", default="memcached",
                       choices=WORKLOADS)
    chaos.set_defaults(fn=_cmd_chaos)

    scope = sub.add_parser(
        "scope", help="fleet-wide tracing + latency telemetry")
    scope.add_argument("--replicas", type=int, default=4,
                       help="fleet size (independent Veil CVMs)")
    scope.add_argument("--requests", type=int, default=48,
                       help="closed-loop requests through the front end")
    scope.add_argument("--schedule", default="mayhem",
                       choices=sorted(PROFILES),
                       help="fault schedule to inject ('none' for a "
                            "clean fleet)")
    scope.add_argument("--seed", type=int, default=1,
                       help="fault-schedule seed (replayable)")
    scope.add_argument("--policy", default="least-outstanding",
                       choices=tuple(POLICIES))
    scope.add_argument("--service", default="memcached",
                       choices=WORKLOADS,
                       help="service each replica hosts")
    scope.add_argument("--capacity", type=int, default=65536,
                       help="tracer ring-buffer capacity (events)")
    scope.add_argument("--out", default=None,
                       help="write the merged fleet Chrome trace here")
    scope.add_argument("--json", default=None,
                       help="write the telemetry/metrics snapshot here")
    scope.set_defaults(fn=_cmd_scope)

    surge = sub.add_parser(
        "surge", help="open-loop load generation (event scheduler)")
    from .surge import ARRIVALS
    surge.add_argument("--seed", type=int, default=1,
                       help="arrival-plan seed (replayable)")
    surge.add_argument("--arrivals", default="poisson",
                       choices=sorted(ARRIVALS),
                       help="arrival shape (traffic class)")
    surge.add_argument("--replicas", type=int, default=8,
                       help="fleet size (independent Veil CVMs)")
    surge.add_argument("--requests", type=int, default=2000,
                       help="open-loop arrivals to schedule")
    surge.add_argument("--load", type=float, default=2.0,
                       help="offered load as a multiple of estimated "
                            "fleet capacity")
    surge.add_argument("--workload", default="memcached",
                       choices=WORKLOADS)
    surge.add_argument("--policy", default="least-outstanding",
                       choices=tuple(POLICIES))
    surge.add_argument("--admit-limit", type=int, default=0,
                       help="in-flight admission cap (0 = unlimited)")
    surge.add_argument("--min-active", type=int, default=0,
                       help="warm-pool floor enabling the autoscaler "
                            "(0 = all replicas active, no scaling)")
    surge.add_argument("--json", default=None,
                       help="write the run summary (or --knee bench) "
                            "JSON here")
    surge.add_argument("--min-inflight", type=int, default=0,
                       help="exit non-zero unless peak in-flight "
                            "reaches this floor")
    surge.add_argument("--smoke", action="store_true",
                       help="small fixed-size seeded run; prints the "
                            "deterministic summary JSON (CI "
                            "byte-compares two of these)")
    surge.add_argument("--knee", action="store_true",
                       help="sweep load factors per arrival class and "
                            "write the BENCH_surge.json artifact")
    surge.set_defaults(fn=_cmd_surge)

    export = sub.add_parser("export",
                            help="dump all results as JSON/CSV")
    export.add_argument("--out", default="results")
    export.set_defaults(fn=_cmd_export)

    sub.add_parser("ablations",
                   help="design-choice ablation experiments"
                   ).set_defaults(fn=_cmd_ablations)

    sub.add_parser("all", help="the paper's evaluation").set_defaults(
        fn=_cmd_all)
    return parser


def _check_output_paths(args) -> None:
    """Refuse an ``--out``/``--json`` path that cannot be written.

    Checked before the run, which may take seconds.  ``export --out``
    names a directory, created with any missing parents, so only a
    file at that path or above it is refused here; the file names come
    from the run, and ``export_all`` checks them before its first write.
    """
    if args.command == "export":
        existing = args.out
        while existing and not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if existing and not os.path.isdir(existing):
            raise SimulationError(
                f"cannot write {args.out}: {existing} is not a directory")
        return
    for path in (getattr(args, "out", None), getattr(args, "json", None)):
        if not path:
            continue
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            raise SimulationError(f"cannot write {path}: it is a directory")
        if not os.path.isdir(parent):
            raise SimulationError(
                f"cannot write {path}: directory {parent} does not exist")


def main(argv=None) -> None:
    """CLI entry point: parse arguments and run the command.

    A run the simulator refuses to start (zero replicas, zero
    iterations, an output path it cannot write, ...) raises
    :class:`SimulationError`; it exits with argparse's usage-error
    status 2 and a one-line message.  A reader that closes the pipe
    early (``repro attacks | head -1``) ends the run with status 1 and
    nothing on stderr.
    """
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if rest and args.fn is not _cmd_analysis:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.analysis_argv = rest
    try:
        _check_output_paths(args)
        args.fn(args)
        sys.stdout.flush()
    except SimulationError as refused:
        parser.exit(2, f"{parser.prog}: error: {refused}\n")
    except BrokenPipeError:
        # The recipe of the ``signal`` module docs: point stdout at
        # devnull so the interpreter's flush at exit cannot raise again,
        # and exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
