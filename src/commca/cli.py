"""Command line front-end.

Subcommands:
  check         robustness and community predicates on graph files
  run           simulate a built-in example or a scenario document
  scenario      emit the resolved scenario document for an example
  verify-prop1  reachability preservation plus runtime isolation checks

Exit codes are a stable contract: 0 success / predicate holds, 1 a checked
predicate or property fails, 2 input or validation error, 3 enumeration size
cap exceeded or out of memory.  The environment variable COMMCA_CAP overrides
the default enumeration cap; --force lifts it entirely.

main() can be called many times in one process (tests, the benchmark, a
notebook).  It builds its argument parser on the first call and reuses it:
each parse returns a fresh namespace and no argument has a mutable default,
so no call sees what an earlier one parsed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import format_verdict, rac_verdict, require_verdict_parameters, summary_lines
from .graph import parse_communities, parse_graph
from .protocol import ConfigError, run
from .robustness import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    format_witness,
    is_community,
    is_r_excess_robust,
    is_rs_excess_robust,
    verify_reachability_preservation,
)
from .scenarios import EXAMPLES, format_scenario, read_scenario


def _resolve_cap(force: bool) -> int | None:
    if force:
        return None
    raw = os.environ.get("COMMCA_CAP")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ConfigError([f"COMMCA_CAP must be a non-negative integer, got {raw!r}"])
    return cap


def _read_document(path: str) -> str:
    """A graph, community or scenario file's text with every line ending
    kept, so that only '\n' ends a line, as the readers count lines."""
    with open(path, newline="") as fh:
        return fh.read()


def _build_config(args):
    """The config a command works on, not yet validated: run() validates the
    config it runs, and a command that does not run it validates it itself."""
    overrides = {key: getattr(args, key) for key in ("seed", "alpha", "rounds")
                 if getattr(args, key, None) is not None}
    if args.example is not None:  # the seed also shapes an example's graph
        return EXAMPLES[args.example](**overrides)
    config, problems = read_scenario(_read_document(args.scenario))
    config = replace(config, **overrides)
    if problems:  # reported together with the config's own, as load_scenario does
        raise ConfigError(problems + config.validation_problems())
    return config


def _cmd_check(args) -> int:
    cap = _resolve_cap(args.force)
    g = parse_graph(_read_document(args.graph))
    modes = [m for m in (args.rs, args.r, args.community) if m is not None]
    if len(modes) != 1:
        raise ConfigError(["pass exactly one of --rs, --r, --community"])
    if args.rs is not None or args.r is not None:
        witness = (is_rs_excess_robust(g, *args.rs, cap=cap) if args.rs is not None
                   else is_r_excess_robust(g, args.r, cap=cap))
        sys.stdout.write(format_witness(witness))
        return 0 if witness.robust else 1
    if args.communities is None:
        raise ConfigError(["--community needs a --communities file"])
    layout = parse_communities(_read_document(args.communities))
    try:
        layout.require_covering(g)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    all_ok = True
    for i, subset in enumerate(layout.subsets, start=1):
        check = is_community(g, subset, args.community, cap=cap)
        verdict = "yes" if check.is_community else "no"
        line = (
            f"community {i}: community={verdict} external={check.external_degree} "
            f"min-degree={check.min_degree} required={check.required_degree}"
        )
        if check.reasons:
            line += " failed=" + ",".join(check.reasons)
        print(line)
        if check.witness is not None:
            sys.stdout.write(format_witness(check.witness))
        all_ok = all_ok and check.is_community
    return 0 if all_ok else 1


def _cmd_run(args) -> int:
    config = _build_config(args)
    params = dict(epsilon=args.eps, delta=args.delta, window=args.window)
    # the verdict's flags are checked before any round is run, but a config
    # problem is reported first; run() validates the config it runs
    try:
        require_verdict_parameters(config.rounds + 1, **params)
    except ValueError:
        config.validate()
        raise
    trace = run(config)
    verdict = rac_verdict(trace, **params)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "trace.csv")
    (out / "verdict.txt").write_text(format_verdict(verdict))
    (out / "scenario.txt").write_text(format_scenario(config))
    for line in summary_lines(verdict):
        print(line)
    print(f"wrote {out / 'trace.csv'}, {out / 'verdict.txt'}, {out / 'scenario.txt'}")
    return 0 if verdict.all_pass else 1


def _cmd_scenario(args) -> int:
    config = _build_config(args)
    config.validate()
    text = format_scenario(config)
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify_prop1(args) -> int:
    cap = _resolve_cap(args.force)
    if args.samples < 1:
        raise ConfigError(["sample count must be positive"])
    config = _build_config(args)
    # first, so that an invalid config exits before any output; run() keeps
    # only the rows up to the fixed point, and the trace is dropped at once,
    # so the community checks add nothing to peak memory
    isolation = run(config).isolation
    g, layout = config.graph, config.layout
    certified: list[int] = []
    failures = False
    for i, subset in enumerate(layout.subsets):
        f_i = layout.malicious_count(i)
        check = is_community(g, subset, f_i, cap=cap)
        label = f"community {i + 1}"
        if not check.is_community:
            print(
                f"{label}: not a community (failed {', '.join(check.reasons)}); "
                "preservation not required"
            )
            continue
        certified.append(i)
        result = verify_reachability_preservation(
            g, subset, mode=args.mode, samples=args.samples, seed=config.seed
        )
        print(
            f"{label}: preservation ok over {result.subsets_checked} subsets "
            f"({result.mode}, threshold {result.threshold})"
        )
    for i, report in enumerate(isolation):
        label = f"community {i + 1}"
        if report.ok:
            print(f"{label}: isolation ok over {config.rounds} rounds")
            continue
        t, agent, med = report.first
        line = (
            f"{label}: isolation violated {report.violations} times, first at "
            f"round {t} by agent {agent} (median {med:.6g})"
        )
        if i in certified:
            failures = True
            print(line)
        else:
            print(line + " [community predicate not met; informational]")
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after it."""
    parser = argparse.ArgumentParser(
        prog="commca",
        description="Community consensus: robustness checks, simulation, verdicts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="robustness and community predicates")
    p_check.add_argument("graph", help="graph file: 'n <count>' then 'u v' lines")
    p_check.add_argument("--communities", help="community file for --community mode")
    p_check.add_argument("--rs", nargs=2, type=int, metavar=("R", "S"),
                         help="check (R, S)-excess robustness of the whole graph")
    p_check.add_argument("--r", type=int, metavar="R",
                         help="check R-excess robustness of the whole graph")
    p_check.add_argument("--community", type=int, metavar="F",
                         help="check each listed community with F malicious members")
    p_check.add_argument("--force", action="store_true",
                         help="lift the enumeration size cap")
    p_check.set_defaults(func=_cmd_check)

    def add_config_args(p, rounds_help: str):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--example", type=int, choices=tuple(EXAMPLES))
        group.add_argument("--scenario", help="scenario document path")
        p.add_argument("--seed", type=int, help="initial value seed")
        p.add_argument("--alpha", type=float, help="update weight on the own value")
        p.add_argument("--rounds", type=int, help=rounds_help)

    p_run = sub.add_parser("run", help="simulate and classify the outcome")
    add_config_args(p_run, "round count (default 5000)")
    p_run.add_argument("--eps", type=float, default=1e-6,
                       help="agreement spread threshold (default 1e-6)")
    p_run.add_argument("--delta", type=float, default=1e-3,
                       help="cluster grouping width (default 1e-3)")
    p_run.add_argument("--window", type=int, default=50,
                       help="agreement window in rounds (default 50)")
    p_run.add_argument("--out", default=".",
                       help="output directory for trace.csv, verdict.txt, scenario.txt")
    p_run.set_defaults(func=_cmd_run)

    p_scenario = sub.add_parser("scenario", help="emit a resolved scenario document")
    p_scenario.add_argument("--example", type=int, choices=tuple(EXAMPLES), required=True)
    p_scenario.add_argument("--seed", type=int)
    p_scenario.add_argument("--alpha", type=float)
    p_scenario.add_argument("--rounds", type=int)
    p_scenario.add_argument("--out", help="output file (default stdout)")
    p_scenario.set_defaults(func=_cmd_scenario, scenario=None)

    p_verify = sub.add_parser("verify-prop1",
                              help="reachability preservation and isolation checks")
    add_config_args(p_verify, "simulation rounds for the isolation check")
    p_verify.add_argument("--mode", choices=("exhaustive", "sampled"),
                          default="exhaustive",
                          help="subsets the closed-form preservation certificate "
                               "reports: all of them (default) or --samples of them")
    p_verify.add_argument("--samples", type=int, default=10_000,
                          help="subset count reported in sampled mode (default 10000)")
    p_verify.add_argument("--force", action="store_true",
                          help="lift the enumeration size cap of the community checks")
    p_verify.set_defaults(func=_cmd_verify_prop1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # FormatError and ConfigError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
