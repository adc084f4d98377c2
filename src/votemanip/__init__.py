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

from types import ModuleType as _ModuleType

from .census import (
    DEFAULT_BUDGET, BudgetExceededError, CensusReport, CensusResult, CensusSpec,
    EliminationReport, EliminationScanReport, ImprovementReport, PairTable,
    census_of, eliminates, elimination_scan, enumerate_profiles, family_census,
    improves_on_all_subsets, less_susceptible, pair_table, report_csv,
    report_json, run_census, sample_profiles,
)
from .core import (
    PairwiseTally, Profile, ProfileFormatError, Ranking, all_rankings,
    default_labels, format_profile_json, format_profile_text, pairwise_tally,
    parse_profile_json, parse_profile_text, read_profile_file,
)
from .dominance import KINDS, dominates_nonstrict, dominates_strict
from .manipulation import (
    NOTIONS, MethodOutcome, UncertaintySet, Witness, add_24_voters,
    add_bottom_candidate, add_two_voters, classify_transition, find_manipulation,
    method_set, notion_holds, profile_witnesses, subset_family,
)
from .methods import (
    METHOD_ORDER, METHODS, VotingMethod, baldwin, borda, condorcet, coombs,
    copeland, hare, maxmin, pairwise_dictator, parse_method, plurality,
    plurality_with_runoff, strict_nanson, tiebroken, weak_nanson,
)
from .pscf import (
    SDWitness, find_sd_manipulation, induced_lottery, lottery_strings,
    stochastically_dominates,
)
from .verify import TARGETS, VerifyReport, run_target

__version__ = "0.1.0"

# Every name imported above, and no submodule.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
