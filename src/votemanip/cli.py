"""Command-line interface.

Subcommands:

* ``winners PROFILE``: winner sets of one or more methods on a profile file;
* ``analyze PROFILE``: search one voter's insincere ballots for a witness;
* ``table``: singleton/pair census table over a profile space;
* ``eliminate``: scan method subsets that eliminate manipulation outright;
* ``verify TARGET``: re-derive a named frozen claim from scratch;
* ``pscf PROFILE``: induced lottery, with an optional dominance search.

Every option can also be set through an environment variable named
``VOTEMANIP_<OPTION>`` (for example ``VOTEMANIP_BUDGET=1000000``); explicit
flags win.  All output embeds the resolved configuration, and sampled runs
echo their seed, so any output can be reproduced from the artifact alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction

from .census import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    elimination_scan,
    pair_table,
    report_csv,
    report_json,
)
from .core import ProfileFormatError, default_labels, read_profile_file
from .dominance import KINDS
from .manipulation import NOTIONS, UncertaintySet, find_manipulation
from .methods import METHOD_ORDER, parse_method
from .pscf import find_sd_manipulation, induced_lottery, lottery_strings
from .verify import CENSUS_TARGETS, TARGETS, run_target


def _env_name(option: str) -> str:
    return f"VOTEMANIP_{option.upper().replace('-', '_')}"


def _env(option: str, fallback: str | None = None) -> str | None:
    return os.environ.get(_env_name(option), fallback)


def _int_env(option: str, fallback: int | None) -> int | None:
    raw = _env(option)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_env_name(option)} must be an integer, got {raw!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("pretty", "csv", "json"),
                        default=_env("format", "pretty"))


def _add_budget(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int,
                        default=_int_env("budget", DEFAULT_BUDGET))


def _add_notion(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--notion", choices=NOTIONS,
                        default=_env("notion", "sure"))
    parser.add_argument("--kind", choices=KINDS, default=_env("kind", "weak"))


# Ids are separated by ',' or ';'; a pdict:x,y,i id keeps its own two commas.
_METHOD_TOKEN = re.compile(r"\s*pdict:[^,;]*(?:,[^,;]*){0,2}|[^,;]+")


def _parse_methods(text: str, labels) -> list:
    names = METHOD_ORDER if text == "all" else tuple(
        t.strip() for t in _METHOD_TOKEN.findall(text) if t.strip()
    )
    return [parse_method(name, labels) for name in names]


def _parse_weights(text: str | None):
    if text is None:
        return None
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"weights must be fractions like 1/2,1/2, got {text!r}") from None


def _print_config(config: dict, out) -> None:
    for k, v in config.items():
        out.write(f"# {k}={v}\n")


def _fmt_set(winners, labels) -> str:
    return "".join(labels[x] for x in sorted(winners))


def _check_voter(voter: int, profile) -> None:
    if not 0 <= voter < profile.m:
        raise ValueError(f"voter {voter} out of range for {profile.m} voters")


def cmd_winners(args) -> int:
    profile, labels = read_profile_file(args.profile)
    methods = _parse_methods(args.methods, labels)
    config = {"command": "winners", "profile": args.profile,
              "methods": [f.id for f in methods]}
    rows = [(f.id, _fmt_set(f.winners(profile), labels)) for f in methods]
    if args.format == "json":
        print(json.dumps({"config": config, "winners": dict(rows)}, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        _print_config(config, buf)
        writer = csv.writer(buf)
        writer.writerow(["method", "winners"])
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        _print_config(config, sys.stdout)
        width = max(len(mid) for mid, _ in rows)
        for mid, winners in rows:
            print(f"{mid:<{width}}  {winners}")
    return 0


def cmd_analyze(args) -> int:
    profile, labels = read_profile_file(args.profile)
    _check_voter(args.voter, profile)
    methods = UncertaintySet(tuple(_parse_methods(args.methods, labels)))
    weights = _parse_weights(args.weights)
    witness = find_manipulation(profile, args.voter, methods, args.notion,
                                args.kind, weights)
    config = {"command": "analyze", "profile": args.profile, "voter": args.voter,
              "methods": [f.id for f in methods], "notion": args.notion,
              "kind": args.kind,
              "weights": None if weights is None else [str(w) for w in weights]}
    if args.format == "json":
        doc = {"config": config, "witness": None}
        if witness is not None:
            doc["witness"] = {
                "voter": witness.voter,
                "sincere": "".join(labels[x] for x in witness.true_ranking.order),
                "ballot": "".join(labels[x] for x in witness.new_ranking.order),
                "outcomes": [
                    {"method": o.method_id, "before": _fmt_set(o.before, labels),
                     "after": _fmt_set(o.after, labels), "relation": o.relation}
                    for o in witness.outcomes
                ],
            }
        print(json.dumps(doc, indent=2))
        return 0
    if args.format == "csv":
        buf = io.StringIO()
        _print_config(config, buf)
        writer = csv.writer(buf)
        writer.writerow(["voter", "ballot", "method", "before", "after", "relation"])
        if witness is not None:
            ballot = "".join(labels[x] for x in witness.new_ranking.order)
            for o in witness.outcomes:
                writer.writerow([witness.voter, ballot, o.method_id,
                                 _fmt_set(o.before, labels),
                                 _fmt_set(o.after, labels), o.relation])
        print(buf.getvalue(), end="")
        return 0
    _print_config(config, sys.stdout)
    if witness is None:
        print(f"voter {args.voter}: no {args.notion}-{args.kind} manipulation")
        return 0
    ballot = "".join(labels[x] for x in witness.new_ranking.order)
    print(f"voter {args.voter} can switch to {ballot}:")
    for o in witness.outcomes:
        print(f"  {o.method_id}: {_fmt_set(o.before, labels)} -> "
              f"{_fmt_set(o.after, labels)} ({o.relation})")
    return 0


def cmd_table(args) -> int:
    labels = default_labels(args.n)
    methods = _parse_methods(args.methods, labels)
    table = pair_table(methods, args.n, args.m, args.notion, args.kind,
                       samples=args.samples, seed=args.seed, budget=args.budget)
    if args.format == "csv":
        print(report_csv(table.report), end="")
        return 0
    if args.format == "json":
        doc = json.loads(report_json(table.report))
        doc["below_both_pairs"] = [
            UncertaintySet((f, g)).id
            for i, f in enumerate(methods)
            for g in methods[i + 1:]
            if table.below_both(f, g)
        ]
        print(json.dumps(doc, indent=2))
        return 0
    _print_config(table.report.spec.config(), sys.stdout)
    print("set".ljust(40), "witness_profiles".rjust(16), "percentage".rjust(11))
    for r in table.report.results:
        print(r.set_id.ljust(40), str(r.witness_profiles).rjust(16),
              f"{r.percentage:10.1f}%")
    flagged = [
        UncertaintySet((f, g)).id
        for i, f in enumerate(methods)
        for g in methods[i + 1:]
        if table.below_both(f, g)
    ]
    if flagged:
        print("pairs strictly below both of their singletons:")
        for sid in flagged:
            print(f"  {sid}")
    return 0


def cmd_eliminate(args) -> int:
    labels = default_labels(args.n)
    methods = _parse_methods(args.methods, labels)
    scan = elimination_scan(methods, args.n, args.m, args.notion, args.kind,
                            max_set_size=args.max_set_size, budget=args.budget)
    if args.format == "csv":
        print(report_csv(scan.report), end="")
        return 0
    if args.format == "json":
        doc = json.loads(report_json(scan.report))
        doc["eliminating"] = list(scan.eliminating)
        print(json.dumps(doc, indent=2))
        return 0
    _print_config(scan.report.spec.config(), sys.stdout)
    if not scan.eliminating:
        print("no subset eliminates manipulation at this size")
    for sid in scan.eliminating:
        print(f"eliminates: {sid}")
    return 0


def cmd_verify(args) -> int:
    # VOTEMANIP_BUDGET is a default for census targets; only an explicit
    # --budget is an error on a target that runs no census.
    budget = args.budget
    if budget is None and args.target in CENSUS_TARGETS:
        budget = _int_env("budget", DEFAULT_BUDGET)
    report = run_target(args.target, budget)
    config = {"command": "verify", "target": args.target, "budget": budget}
    if args.format == "json":
        print(json.dumps({
            "config": config,
            "passed": report.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in report.checks
            ],
        }, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        _print_config(config, buf)
        writer = csv.writer(buf)
        writer.writerow(["check", "passed", "detail"])
        for c in report.checks:
            writer.writerow([c.name, c.passed, c.detail])
        print(buf.getvalue(), end="")
    else:
        _print_config(config, sys.stdout)
        for c in report.checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name} ({c.detail})")
        print(f"{args.target}: {'all checks passed' if report.passed else 'FAILED'}")
    return 0 if report.passed else 1


def cmd_pscf(args) -> int:
    profile, labels = read_profile_file(args.profile)
    if args.voter is not None:
        _check_voter(args.voter, profile)
    methods = UncertaintySet(tuple(_parse_methods(args.methods, labels)))
    lottery = induced_lottery(methods, profile)
    config = {"command": "pscf", "profile": args.profile,
              "methods": [f.id for f in methods], "voter": args.voter}
    entries = dict(zip(labels, lottery_strings(lottery)))
    witness = None
    if args.voter is not None:
        witness = find_sd_manipulation(profile, args.voter, methods)
    if args.format == "json":
        doc = {"config": config, "lottery": entries, "witness": None}
        if witness is not None:
            doc["witness"] = {
                "voter": witness.voter,
                "ballot": "".join(labels[x] for x in witness.new_ranking.order),
                "before": dict(zip(labels, lottery_strings(witness.before))),
                "after": dict(zip(labels, lottery_strings(witness.after))),
            }
        print(json.dumps(doc, indent=2))
        return 0
    if args.format == "csv":
        buf = io.StringIO()
        _print_config(config, buf)
        writer = csv.writer(buf)
        writer.writerow(["candidate", "probability"])
        for lab, prob in entries.items():
            writer.writerow([lab, prob])
        print(buf.getvalue(), end="")
        return 0
    _print_config(config, sys.stdout)
    print("lottery: " + ", ".join(f"{lab}: {p}" for lab, p in entries.items()))
    if args.voter is not None:
        if witness is None:
            print(f"voter {args.voter}: no ballot improves the lottery")
        else:
            ballot = "".join(labels[x] for x in witness.new_ranking.order)
            after = ", ".join(
                f"{lab}: {p}" for lab, p in zip(labels, lottery_strings(witness.after))
            )
            print(f"voter {args.voter} can switch to {ballot}: {after}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votemanip",
        description="strategic-voting analysis under voting-method uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winners", help="winner sets on a profile file")
    p.add_argument("profile")
    p.add_argument("--methods", default=_env("methods", "all"))
    _add_common(p)
    p.set_defaults(fn=cmd_winners)

    p = sub.add_parser("analyze", help="search one voter's ballots for a witness")
    p.add_argument("profile")
    p.add_argument("--voter", type=int, default=_int_env("voter", 0))
    p.add_argument("--methods", default=_env("methods", "all"))
    _add_notion(p)
    p.add_argument("--weights", default=_env("weights"),
                   help="comma-separated expected-notion weights, e.g. 1/2,1/4,1/4")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("table", help="singleton/pair census table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--methods", default=_env("methods", "all"))
    p.add_argument("--samples", type=int, default=_int_env("samples", None))
    p.add_argument("--seed", type=int, default=_int_env("seed", 0))
    _add_notion(p)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("eliminate", help="scan subsets that eliminate manipulation")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--methods", default=_env("methods", "all"))
    p.add_argument("--max-set-size", type=int, default=_int_env("max-set-size", 2))
    _add_notion(p)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("verify", help="re-derive a named frozen claim")
    p.add_argument("target", choices=sorted(TARGETS))
    _add_common(p)
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pscf", help="induced lottery and dominance search")
    p.add_argument("profile")
    p.add_argument("--methods", default=_env("methods", "all"))
    p.add_argument("--voter", type=int, default=_int_env("voter", None))
    _add_common(p)
    p.set_defaults(fn=cmd_pscf)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ProfileFormatError, BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
