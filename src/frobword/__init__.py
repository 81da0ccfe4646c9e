"""Co-finiteness and state-complexity measures for star closures of finite
word sets, together with the coin-problem arithmetic they rest on."""

from frobword.automata import (
    DEFAULT_STATE_CAP,
    CapExceeded,
    Dfa,
    Nfa,
    NotFinite,
    complement,
    count_words,
    determinize,
    distinguishing_word,
    equivalent,
    is_cofinite,
    longest_word,
    minimize,
    state_complexity,
)
from frobword.families import (
    StarBlowupFamily,
    TwoLengthFamily,
    base_repr,
    chain_blowup_family,
    longest_omitted_witness,
    omitted_count_lower_bound,
    predicted_longest_omitted,
    star_blowup_family,
    star_blowup_sc,
    star_blowup_sc_floor,
    two_length_family,
)
from frobword.numeric import (
    GcdNotOne,
    frobenius_f,
    frobenius_g,
    gcd_all,
    is_degenerate,
    representable,
)
from frobword.starlang import (
    BudgetExceeded,
    MeasureReport,
    PreconditionViolated,
    WordSet,
    chain_cofinite,
    chain_nfa,
    measure_all,
    member_chain,
    member_star,
    minimal_chain_dfa,
    minimal_star_dfa,
    pending_star_dfa,
    trie_star_nfa,
    two_length_cofinite,
    window_star_dfa,
    window_state_bound,
)
from frobword.words import (
    INFINITE,
    commutes,
    common_root,
    fine_wilf_agreement,
    predicted_pair_concat_sc,
    predicted_pair_star_sc,
    prefix_suffix_condition,
)

__version__ = "0.1.0"
