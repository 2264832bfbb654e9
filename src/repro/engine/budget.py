"""Chain budgets: pluggable stopping rules for campaign scheduling.

The paper ran every kernel with a fixed chain allocation on a large
cluster. Most kernels do not need it: their best verified rewrite stops
changing after a handful of chains, and every further chain is wasted
work. A :class:`BudgetSpec` names the stopping rule a campaign
schedules chains under:

===========================  =============================================
``fixed``                    run every configured chain (the default;
                             bit-identical to the pre-budget engine)
``adaptive:stable=K``        stop scheduling new chains once the best
                             verified ranking has been unchanged for K
                             consecutive completed chains
``plateau:eps=E,stable=K``   stop once the best modeled cycle count has
                             improved by less than E over the last K
                             completed chains
``wallclock:secs=S``         deny new chain grants once S seconds of
                             campaign wall-clock have elapsed (S
                             defaults to the paper's 30-minute cluster
                             budget). The deadline is *sweep-wide*:
                             ``engine campaign --budget
                             wallclock:secs=S`` is always one deadline
                             shared by every kernel of the sweep
``validations:n=K``          stop scheduling new chains once the
                             campaign's completed chains have spent K
                             validator queries in total — the cap for
                             minimize/CEGIS-heavy campaigns whose cost
                             is dominated by symbolic equivalence
                             checks, not proposals
===========================  =============================================

Like cost terms and search strategies, budgets are resolved by name
from a registry, so the spec travels through CLI flags (``--budget``)
and checkpoint manifests (the v4 ``budget`` field) — a resumed campaign
rejects a changed stopping rule rather than silently re-deciding which
chains to run. New rules are added with :func:`register_budget`.

The rule itself is a small state machine: the campaign feeds it the
running best-ranking *signature* after each completed chain
(:meth:`StoppingRule.observe`) and asks :meth:`StoppingRule.grant`
before scheduling the next one. Rules whose ``incremental`` flag is
False never need feedback, so the campaign submits the whole plan up
front — exactly the pre-budget execution. ``wallclock`` is the one
rule whose decisions are not a pure function of the result stream:
the campaign therefore journals every grant decision (see
:mod:`repro.engine.checkpoint`) and a resume replays the journal
instead of re-consulting the clock, which keeps replay deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import RegistryError, unknown_name_message

DEFAULT_STABLE_CHAINS = 2
DEFAULT_PLATEAU_EPS = 1.0
# the paper's per-kernel cluster budget: 30 minutes of wall-clock
DEFAULT_WALLCLOCK_SECS = 1800.0
DEFAULT_VALIDATIONS = 64

# The ranking signature a rule observes: (best program key, modeled
# cycles). Cost is deliberately excluded — the merged testcase suite
# grows as chains complete, so cost values can shift under a program
# whose identity (and therefore the ranking) is unchanged.
Signature = tuple[str, int]


class StoppingRule:
    """When to stop scheduling chains for one kernel.

    Attributes:
        incremental: True if the rule decides chain by chain; False
            lets the campaign submit its full plan in one wave.
        needs_ranking: True if the rule consumes per-chain ranking
            feedback (``observe``); False skips the per-round re-rank
            entirely (``wallclock`` only needs the clock).
        needs_validations: True if the rule consumes the per-round
            validator-query spend (``charge``) — cheaper feedback than
            a re-rank, still a pure function of the plan-order results.
        stop_reason: the ``kernel-stopped`` event reason this rule
            reports when it denies a grant.
    """

    incremental: bool = False
    needs_ranking: bool = True
    needs_validations: bool = False
    stop_reason: str = "stable"

    def observe(self, signature: Signature) -> None:
        """Record the running best ranking after one completed chain."""

    def charge(self, validations: int) -> None:
        """Record validator queries newly spent by completed chains."""

    def should_stop(self) -> bool:
        """True once further chains are judged not worth scheduling."""
        return False

    def grant(self, elapsed: float) -> bool:
        """Decide, at grant time, whether the next chain may start.

        ``elapsed`` is the campaign's wall-clock age in seconds; only
        clock-driven rules look at it. The default defers to
        :meth:`should_stop`, so ranking-driven rules stay a pure
        function of the plan-order result stream.
        """
        del elapsed
        return not self.should_stop()

    @property
    def stable_chains(self) -> int:
        """Consecutive completed chains with a stable best ranking."""
        return 0


class FixedRule(StoppingRule):
    """Run every configured chain; never stop early."""

    incremental = False


class StableRule(StoppingRule):
    """Stop after ``stable`` consecutive chains without a ranking change.

    The first completed chain establishes the signature; each further
    chain that leaves the best (program, cycles) pair unchanged grows
    the streak, and any change resets it. Decisions depend only on the
    plan-order sequence of signatures, so adaptive campaigns stay
    deterministic at any worker count.
    """

    incremental = True
    stop_reason = "stable"

    def __init__(self, stable: int) -> None:
        if stable < 1:
            raise RegistryError(
                f"adaptive budget needs stable >= 1, got {stable}")
        self.stable = stable
        self._last: Signature | None = None
        self._streak = 0

    def observe(self, signature: Signature) -> None:
        if self._last is not None and signature == self._last:
            self._streak += 1
        else:
            self._streak = 0
        self._last = signature

    def should_stop(self) -> bool:
        return self._streak >= self.stable

    @property
    def stable_chains(self) -> int:
        return self._streak


class PlateauRule(StoppingRule):
    """Stop once best cycles improved by less than ``eps`` over
    ``stable`` chains.

    Where :class:`StableRule` demands a *bit-identical* best ranking,
    this rule tolerates churn among near-ties: it tracks the best
    modeled cycle count after each completed chain and stops once the
    improvement over the last ``stable`` chains falls below ``eps``.
    Decisions are a pure function of the plan-order cycle sequence, so
    plateau campaigns are as worker-count-invariant as adaptive ones.
    """

    incremental = True
    stop_reason = "plateau"

    def __init__(self, eps: float, stable: int) -> None:
        if eps <= 0:
            raise RegistryError(
                f"plateau budget needs eps > 0, got {eps}")
        if stable < 1:
            raise RegistryError(
                f"plateau budget needs stable >= 1, got {stable}")
        self.eps = eps
        self.stable = stable
        self._history: list[int] = []

    def observe(self, signature: Signature) -> None:
        self._history.append(signature[1])

    def should_stop(self) -> bool:
        return self.stable_chains >= self.stable

    @property
    def stable_chains(self) -> int:
        """Trailing chains whose cycles sit within ``eps`` of the
        latest best (the plateau's length so far)."""
        if not self._history:
            return 0
        latest = self._history[-1]
        streak = 0
        for prior in reversed(self._history[:-1]):
            if prior - latest < self.eps:
                streak += 1
            else:
                break
        return streak


class WallclockRule(StoppingRule):
    """Deny chain grants once the campaign is ``secs`` seconds old.

    The deadline is enforced at *grant* time, never mid-chain: a chain
    that was granted always runs to completion, so the set of chains a
    campaign ran is exactly the set of grants it journaled — which is
    what a resume replays instead of re-consulting the clock. The
    clock is the sweep's: ``engine campaign --budget wallclock:secs=S``
    is always one deadline shared by every kernel of the sweep (the
    cluster-allocation reading) — and unlike the ranking-driven rules,
    a fresh run's grants genuinely depend on machine speed, so only
    replayed runs are reproducible.
    """

    incremental = True
    needs_ranking = False
    stop_reason = "deadline"

    def __init__(self, secs: float) -> None:
        if secs <= 0:
            raise RegistryError(
                f"wallclock budget needs secs > 0, got {secs}")
        self.secs = secs

    def grant(self, elapsed: float) -> bool:
        return elapsed < self.secs


class ValidationsRule(StoppingRule):
    """Stop once completed chains have spent ``n`` validator queries.

    Symbolic equivalence checks are the expensive step of a
    minimize/CEGIS-heavy campaign (every zero-cost candidate and every
    shrink step pays one), so this rule budgets *validator work*
    directly: the campaign charges each completed round's validation
    count in plan order, and grants stop once the total reaches the
    cap. Like the ranking rules, decisions are a pure function of the
    plan-order result stream — bit-identical at any worker count. The
    cap gates *grants*, never a running chain, so a round that
    overshoots still completes (the same grant-boundary semantics as
    ``wallclock``).
    """

    incremental = True
    needs_ranking = False
    needs_validations = True
    stop_reason = "validations"

    def __init__(self, n: int) -> None:
        if n < 1:
            raise RegistryError(
                f"validations budget needs n >= 1, got {n}")
        self.n = n
        self._spent = 0

    def charge(self, validations: int) -> None:
        self._spent += validations

    def should_stop(self) -> bool:
        return self._spent >= self.n

    @property
    def spent(self) -> int:
        """Validator queries charged so far."""
        return self._spent


# -- the registry -------------------------------------------------------------

RuleFactory = Callable[["BudgetSpec"], StoppingRule]

_BUDGETS: dict[str, RuleFactory] = {}


def register_budget(name: str, factory: RuleFactory, *,
                    replace: bool = False) -> None:
    """Register a stopping-rule factory under a spec key.

    The factory receives the parsed :class:`BudgetSpec` (for its
    parameters) and must return a fresh rule. Like custom cost terms,
    custom budgets must be registered in every process that plans
    campaigns — though budgets only run in the orchestrating process,
    never in workers.
    """
    if not replace and name in _BUDGETS:
        raise RegistryError(f"budget {name!r} is already registered "
                            "(pass replace=True to override)")
    _BUDGETS[name] = factory


def available_budgets() -> list[str]:
    return sorted(_BUDGETS)


register_budget("fixed", lambda spec: FixedRule())
register_budget("adaptive", lambda spec: StableRule(spec.stable))
register_budget("plateau",
                lambda spec: PlateauRule(spec.eps, spec.stable))
register_budget("wallclock", lambda spec: WallclockRule(spec.secs))
register_budget("validations", lambda spec: ValidationsRule(spec.n))


# -- the spec -----------------------------------------------------------------

# per-kind parameter grammars: name -> converter. Custom kinds added
# with register_budget accept every known parameter — their factories
# read what they need off the parsed spec.
_PARAMETERS: dict[str, dict[str, Callable[[str], float]]] = {
    "fixed": {},
    "adaptive": {"stable": int},
    "plateau": {"eps": float, "stable": int},
    "wallclock": {"secs": float},
    "validations": {"n": int},
}
_CUSTOM_PARAMETERS: dict[str, Callable[[str], float]] = {
    "stable": int, "eps": float, "secs": float, "n": int,
}


def _format_number(value: float) -> str:
    """Canonical numeric form: no trailing zeros (``1`` not ``1.0``).

    The spec string is a resume *fingerprint*: two different parameter
    values must never print the same, so when ``%g``'s 6 significant
    digits would lose precision the exact ``repr`` is used instead.
    """
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


@dataclass(frozen=True)
class BudgetSpec:
    """A stopping rule by name — the serializable flag/manifest form.

    Attributes:
        kind: registry key (``fixed``, ``adaptive``, ``plateau``,
            ``wallclock``).
        stable: the K of ``adaptive``/``plateau``; ignored otherwise.
        eps: the minimum improvement of ``plateau:eps=E``.
        secs: the deadline of ``wallclock:secs=S``.
        n: the validator-query cap of ``validations:n=K``.
    """

    kind: str = "fixed"
    stable: int = DEFAULT_STABLE_CHAINS
    eps: float = DEFAULT_PLATEAU_EPS
    secs: float = DEFAULT_WALLCLOCK_SECS
    n: int = DEFAULT_VALIDATIONS

    def __post_init__(self) -> None:
        if self.kind not in _BUDGETS:
            raise RegistryError(
                unknown_name_message("budget", self.kind, _BUDGETS))
        if self.stable < 1:
            raise RegistryError(
                f"budget parameter stable must be >= 1, got {self.stable}")
        for name, kind in (("eps", "plateau"), ("secs", "wallclock")):
            # nan fails no comparison-based bound (secs=nan denied
            # every grant) and inf passes them all
            value = getattr(self, name)
            if not math.isfinite(value) or (self.kind == kind
                                            and value <= 0):
                raise RegistryError(f"budget parameter {name} must be "
                                    f"a finite number > 0, got {value}")
        if self.kind == "validations" and self.n < 1:
            raise RegistryError(
                f"budget parameter n must be >= 1, got {self.n}")

    @classmethod
    def parse(cls, text: str | BudgetSpec | None) -> BudgetSpec:
        """Parse ``"fixed"``, ``"adaptive[:stable=K]"``,
        ``"plateau[:eps=E,stable=K]"``, ``"wallclock[:secs=S]"``, or
        ``"validations[:n=K]"``.

        Names and parameters are validated immediately so a typo fails
        at the flag, not at the end of the first chain.
        """
        if text is None:
            return cls()
        if isinstance(text, BudgetSpec):
            return text
        kind, _, param_text = text.strip().partition(":")
        kind = kind.strip()
        if kind not in _BUDGETS:
            raise RegistryError(
                unknown_name_message("budget", kind, _BUDGETS))
        allowed = _PARAMETERS.get(kind, _CUSTOM_PARAMETERS)
        if not allowed and param_text.strip():
            raise RegistryError(
                f"budget {kind!r} takes no parameters, got "
                f"{param_text.strip()!r}")
        values: dict[str, float] = {}
        for part in param_text.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value_text = part.partition("=")
            key = key.strip()
            if not sep or key not in allowed:
                expected = " or ".join(f"{name}=..."
                                       for name in allowed)
                raise RegistryError(
                    f"bad budget parameter {part!r} "
                    f"(expected {expected})")
            try:
                values[key] = allowed[key](value_text.strip())
            except ValueError:
                wanted = ("an integer" if allowed[key] is int
                          else "a number")
                raise RegistryError(
                    f"bad budget parameter value {value_text!r} "
                    f"({key} needs {wanted})") from None
        return cls(kind=kind,
                   stable=int(values.get("stable",
                                         DEFAULT_STABLE_CHAINS)),
                   eps=float(values.get("eps", DEFAULT_PLATEAU_EPS)),
                   secs=float(values.get("secs",
                                         DEFAULT_WALLCLOCK_SECS)),
                   n=int(values.get("n", DEFAULT_VALIDATIONS)))

    def spec_string(self) -> str:
        """The canonical flag/manifest form (defaults are implicit)."""
        if self.kind == "adaptive":
            return f"adaptive:stable={self.stable}"
        if self.kind == "plateau":
            return (f"plateau:eps={_format_number(self.eps)},"
                    f"stable={self.stable}")
        if self.kind == "wallclock":
            return f"wallclock:secs={_format_number(self.secs)}"
        if self.kind == "validations":
            return f"validations:n={self.n}"
        return self.kind

    def rule(self) -> StoppingRule:
        """A fresh stopping rule for one campaign."""
        return _BUDGETS[self.kind](self)
