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
flags win, and a value from the environment must be one the flag accepts.
All output embeds the resolved configuration, and sampled runs echo their
seed, so any output can be reproduced from the artifact alone.  Every
command renders through ``_render``: pretty lines or CSV rows after the
``# key=value`` configuration echo, or one JSON document with a ``config``
object.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .census import (
    CSV_COLUMNS,
    DEFAULT_BUDGET,
    BudgetExceededError,
    config_echo,
    csv_text,
    elimination_scan,
    json_text,
    pair_table,
    report_body,
    report_rows,
)
from .core import ProfileFormatError, default_labels, read_profile_file
from .dominance import KINDS
from .manipulation import NOTIONS, UncertaintySet, find_manipulation
from .methods import METHOD_ORDER, parse_method
from .pscf import find_sd_manipulation, induced_lottery, lottery_strings
from .verify import CENSUS_TARGETS, TARGETS, run_target


def _env_name(option: str) -> str:
    return f"VOTEMANIP_{option.upper().replace('-', '_')}"


class _FromEnv:
    """An option's default: its environment variable, or ``fallback``,
    read only once the command is known (``_check_env``)."""

    def __init__(self, option: str, fallback=None, type=str, choices=None) -> None:
        self.option, self.fallback, self.type, self.choices = option, fallback, type, choices

    def value(self):
        name = _env_name(self.option)
        raw = os.environ.get(name)
        if raw is None:
            return self.fallback
        if self.choices is not None and raw not in self.choices:
            raise ValueError(f"{name} must be one of {', '.join(self.choices)}, got {raw!r}")
        try:
            return self.type(raw)
        except ValueError:
            raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _add(parser: argparse.ArgumentParser, option: str, fallback=None, type=str,
         choices=None, help: str | None = None) -> None:
    parser.add_argument(f"--{option}", type=type, choices=choices, help=help,
                        default=_FromEnv(option, fallback, type, choices))


def _check_env(args: argparse.Namespace) -> None:
    """Reads the defaults that come from the environment, after parsing and
    for the options the chosen command has only, so an explicit flag still
    wins and a variable for another command is never read.  The options
    with a fixed set of values are checked first."""
    defaults = [(dest, value) for dest, value in vars(args).items()
                if isinstance(value, _FromEnv)]
    for dest, default in sorted(defaults, key=lambda d: d[1].choices is None):
        setattr(args, dest, default.value())


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add(parser, "format", "pretty", choices=("pretty", "csv", "json"))


BUDGET_HELP = (
    f"the most work a census may do (default {DEFAULT_BUDGET:,}): an exhaustive census "
    "counts its classes, C(n!+m-1, m), or (n!)^|L| C(n!+u-1, u) with labeled voters L "
    "(those a pdict:x,y,i method reads) and u = m-|L| others; a sampled census counts "
    "the profiles it draws")


def _add_budget(parser: argparse.ArgumentParser) -> None:
    _add(parser, "budget", DEFAULT_BUDGET, int, help=BUDGET_HELP)


def _add_notion(parser: argparse.ArgumentParser) -> None:
    _add(parser, "notion", "sure", choices=NOTIONS)
    _add(parser, "kind", "weak", choices=KINDS)


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


def _render(fmt: str, config: dict, columns: Sequence[str], rows: Iterable[Sequence],
            body: dict, pretty: Iterable[str]) -> None:
    """Prints a command's output in ``fmt``: the config and ``body`` as one
    JSON document; the config echo, ``columns`` and ``rows`` as CSV; or the
    config echo and the ``pretty`` lines, consumed only in that format."""
    if fmt == "json":
        sys.stdout.write(json_text(config, body))
    elif fmt == "csv":
        sys.stdout.write(csv_text(config, columns, rows))
    else:
        sys.stdout.write(config_echo(config))
        for line in pretty:
            print(line)


def _fmt_set(winners, labels) -> str:
    return "".join(labels[x] for x in sorted(winners))


def _fmt_ranking(ranking, labels) -> str:
    return "".join(labels[x] for x in ranking.order)


def _fmt_lottery(lottery, labels) -> str:
    return ", ".join(f"{lab}: {p}" for lab, p in zip(labels, lottery_strings(lottery)))


def _check_voter(voter: int, profile) -> None:
    if not 0 <= voter < profile.m:
        raise ValueError(f"voter {voter} out of range for {profile.m} voters")


def _aligned(rows) -> Iterator[str]:
    """``id  winners`` lines, ids padded to the longest; lazy, so that only
    the pretty format takes that width."""
    width = max(len(mid) for mid, _ in rows)
    for mid, winners in rows:
        yield f"{mid:<{width}}  {winners}"


def cmd_winners(args) -> int:
    profile, labels = read_profile_file(args.profile)
    methods = _parse_methods(args.methods, labels)
    if not methods:
        raise ValueError("an uncertainty set needs at least one method")
    config = {"command": "winners", "profile": args.profile,
              "methods": [f.id for f in methods]}
    rows = [(f.id, _fmt_set(f.winners(profile), labels)) for f in methods]
    _render(args.format, config, ("method", "winners"), rows,
            {"winners": dict(rows)}, _aligned(rows))
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
    columns = ("voter", "ballot", "method", "before", "after", "relation")
    if witness is None:
        rows, body = [], {"witness": None}
        pretty = [f"voter {args.voter}: no {args.notion}-{args.kind} manipulation"]
    else:
        ballot = _fmt_ranking(witness.new_ranking, labels)
        rows = [(witness.voter, ballot, o.method_id, _fmt_set(o.before, labels),
                 _fmt_set(o.after, labels), o.relation) for o in witness.outcomes]
        body = {"witness": {
            "voter": witness.voter,
            "sincere": _fmt_ranking(witness.true_ranking, labels),
            "ballot": ballot,
            "outcomes": [dict(zip(columns[2:], row[2:])) for row in rows],
        }}
        pretty = [f"voter {args.voter} can switch to {ballot}:"]
        pretty += [f"  {mid}: {before} -> {after} ({relation})"
                   for _, _, mid, before, after, relation in rows]
    _render(args.format, config, columns, rows, body, pretty)
    return 0


def cmd_table(args) -> int:
    labels = default_labels(args.n)
    methods = _parse_methods(args.methods, labels)
    table = pair_table(methods, args.n, args.m, args.notion, args.kind,
                       samples=args.samples, seed=args.seed, budget=args.budget)
    report = table.report
    below = table.below_both_pairs()
    pretty = [f"{'set':<40} {'witness_profiles':>16} {'percentage':>11}"]
    pretty += [f"{r.set_id:<40} {r.witness_profiles:>16} {r.percentage:10.1f}%"
               for r in report.results]
    if below:
        pretty += ["pairs strictly below both of their singletons:"]
        pretty += [f"  {sid}" for sid in below]
    _render(args.format, report.spec.config(), CSV_COLUMNS, report_rows(report),
            {**report_body(report), "below_both_pairs": below}, pretty)
    return 0


def cmd_eliminate(args) -> int:
    labels = default_labels(args.n)
    methods = _parse_methods(args.methods, labels)
    scan = elimination_scan(methods, args.n, args.m, args.notion, args.kind,
                            max_set_size=args.max_set_size, budget=args.budget)
    report = scan.report
    pretty = [f"eliminates: {sid}" for sid in scan.eliminating] or [
        "no subset eliminates manipulation at this size"]
    _render(args.format, report.spec.config(), CSV_COLUMNS, report_rows(report),
            {**report_body(report), "eliminating": list(scan.eliminating)}, pretty)
    return 0


def cmd_verify(args) -> int:
    # VOTEMANIP_BUDGET is a default for census targets; only an explicit
    # --budget is an error on a target that runs no census.
    budget = args.budget
    if budget is None and args.target in CENSUS_TARGETS:
        budget = _FromEnv("budget", DEFAULT_BUDGET, int).value()
    report = run_target(args.target, budget)
    config = {"command": "verify", "target": args.target, "budget": budget}
    columns = ("check", "passed", "detail")
    rows = [(c.name, c.passed, c.detail) for c in report.checks]
    body = {"passed": report.passed,
            "checks": [dict(zip(("name", "passed", "detail"), row)) for row in rows]}
    pretty = [f"[{'PASS' if passed else 'FAIL'}] {name} ({detail})"
              for name, passed, detail in rows]
    pretty += [f"{args.target}: {'all checks passed' if report.passed else 'FAILED'}"]
    _render(args.format, config, columns, rows, body, pretty)
    return 0 if report.passed else 1


def cmd_pscf(args) -> int:
    profile, labels = read_profile_file(args.profile)
    if args.voter is not None:
        _check_voter(args.voter, profile)
    methods = UncertaintySet(tuple(_parse_methods(args.methods, labels)))
    lottery = induced_lottery(methods, profile)
    config = {"command": "pscf", "profile": args.profile,
              "methods": [f.id for f in methods], "voter": args.voter}
    rows = list(zip(labels, lottery_strings(lottery)))
    witness = None
    pretty = [f"lottery: {_fmt_lottery(lottery, labels)}"]
    if args.voter is not None:
        witness = find_sd_manipulation(profile, args.voter, methods)
        pretty += [
            f"voter {args.voter}: no ballot improves the lottery" if witness is None else
            f"voter {args.voter} can switch to {_fmt_ranking(witness.new_ranking, labels)}: "
            f"{_fmt_lottery(witness.after, labels)}"
        ]
    body = {"lottery": dict(rows), "witness": None if witness is None else {
        "voter": witness.voter,
        "ballot": _fmt_ranking(witness.new_ranking, labels),
        "before": dict(zip(labels, lottery_strings(witness.before))),
        "after": dict(zip(labels, lottery_strings(witness.after))),
    }}
    _render(args.format, config, ("candidate", "probability"), rows, body, pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votemanip",
        description="strategic-voting analysis under voting-method uncertainty",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winners", help="winner sets on a profile file")
    p.add_argument("profile")
    _add(p, "methods", "all")
    _add_common(p)
    p.set_defaults(fn=cmd_winners)

    p = sub.add_parser("analyze", help="search one voter's ballots for a witness")
    p.add_argument("profile")
    _add(p, "voter", 0, int)
    _add(p, "methods", "all")
    _add_notion(p)
    _add(p, "weights", help="comma-separated expected-notion weights, e.g. 1/2,1/4,1/4")
    _add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("table", help="singleton/pair census table")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    _add(p, "methods", "all")
    _add(p, "samples", None, int)
    _add(p, "seed", 0, int)
    _add_notion(p)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("eliminate", help="scan subsets that eliminate manipulation")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    _add(p, "methods", "all")
    _add(p, "max-set-size", 2, int)
    _add_notion(p)
    _add_common(p)
    _add_budget(p)
    p.set_defaults(fn=cmd_eliminate)

    p = sub.add_parser("verify", help="re-derive a named frozen claim")
    p.add_argument("target", choices=sorted(TARGETS))
    _add_common(p)
    p.add_argument("--budget", type=int, default=None,
                   help=BUDGET_HELP + "; a target that runs no census rejects it")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pscf", help="induced lottery and dominance search")
    p.add_argument("profile")
    _add(p, "methods", "all")
    _add(p, "voter", None, int)
    _add_common(p)
    p.set_defaults(fn=cmd_pscf)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_env(args)
        return args.fn(args)
    except (ProfileFormatError, BudgetExceededError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
