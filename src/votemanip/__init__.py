"""Strategic-voting analysis when voters are unsure which method will be used.

A voter who knows the method in use can often gain by misreporting their
ranking.  This package asks what survives of that ability when the voter
only knows the method lies in some finite set: each insincere ballot then
yields one winner set per method, and the notions in
:mod:`votemanip.manipulation` grade a switch by how those outcomes compare
to the sincere ones.  :mod:`votemanip.census` counts witnessing profiles
over whole profile spaces, exactly or by sampling, and
:mod:`votemanip.pscf` treats the method set as a lottery instead.
"""

from importlib import import_module as _import_module

# The public names, by the submodule that defines them.  Each submodule is
# imported when one of its names is first read (PEP 562), so a census
# loads neither the verify targets and fixtures nor the lottery module,
# nor the standard modules only they and the serializers need.
_EXPORTS = {
    "census": (
        "DEFAULT_BUDGET", "BudgetExceededError", "CensusReport", "CensusResult", "CensusSpec",
        "EliminationReport", "EliminationScanReport", "ImprovementReport", "PairTable",
        "census_of", "eliminates", "elimination_scan", "enumerate_profiles", "family_census",
        "improves_on_all_subsets", "less_susceptible", "pair_table", "report_csv",
        "report_json", "run_census", "sample_profiles",
    ),
    "core": (
        "PairwiseTally", "Profile", "ProfileFormatError", "Ranking", "all_rankings",
        "default_labels", "format_profile_json", "format_profile_text", "pairwise_tally",
        "parse_profile_json", "parse_profile_text", "read_profile_file",
    ),
    "dominance": ("KINDS", "dominates_nonstrict", "dominates_strict"),
    "manipulation": (
        "NOTIONS", "MethodOutcome", "UncertaintySet", "Witness", "add_24_voters",
        "add_bottom_candidate", "add_two_voters", "classify_transition", "find_manipulation",
        "method_set", "notion_holds", "profile_witnesses", "subset_family",
    ),
    "methods": (
        "METHOD_ORDER", "METHODS", "VotingMethod", "baldwin", "borda", "condorcet", "coombs",
        "copeland", "hare", "maxmin", "pairwise_dictator", "parse_method", "plurality",
        "plurality_with_runoff", "strict_nanson", "tiebroken", "weak_nanson",
    ),
    "pscf": (
        "SDWitness", "find_sd_manipulation", "induced_lottery", "lottery_strings",
        "stochastically_dominates",
    ),
    "verify": ("TARGETS", "VerifyReport", "run_target"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
