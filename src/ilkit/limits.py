"""Every resource limit of the toolkit, each with the cost it bounds.

The library checks each limit before it allocates what the limit bounds.
The CLI reports an input over a limit as a usage error (exit 2); an
extension that outgrows ``ue --cap`` and a tautology step with too many
components are failed checks (exit 1).
"""

NESTING_LIMIT = 100             # open parentheses: the parser's operator stack
WORLDS_LIMIT = 256              # frame-file worlds: completing a dense chain is cubic
VALUATION_BITS_LIMIT = 20       # atoms x worlds: frame_valid sweeps 2^bits valuations
FAN_LIMIT = VALUATION_BITS_LIMIT // 2 - 4   # pencil fan: two atoms on 4 + m worlds
TAUT_COMPONENT_LIMIT = 16       # tautology components: a truth table of 2^k rows
SATURATION_POOL_LIMIT = 12      # pool formulas: check_saturation forces 2^k conjunctions
LABEL_MEMBER_LIMIT = 8          # filter members: check_label_saturation tabulates 2^k subfamilies
LABEL_WORLDS_LIMIT = 10         # base worlds: 2^n - 1 label filters and 2^n-entry tables
UE_WORLDS_CAP = 100_000         # default extension worlds: build_ue's world list


def check_label_worlds(n: int) -> None:
    """Refuse, with ValueError, a frame of n worlds too wide to list its
    label filters or tabulate its preimages."""
    if n > LABEL_WORLDS_LIMIT:
        raise ValueError(f"{n} worlds have 2^{n} - 1 label filters; "
                         f"limit is {LABEL_WORLDS_LIMIT} worlds")
