"""API cost accounting: per-call, per-page, and savings ratios.

All rates live in a PricingConfig so they can be overridden from a JSON
file when vendor pricing drifts. Text-model per-token rates are
back-derived from published per-call costs at 600 input tokens; the
image-call cost is a flat constant because no per-token image pricing is
published.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

from .errors import check_count, check_record, read_json

SOLUTIONS = ("ours", "anthropic", "llamaparse", "vertex")

_REPORT_MODELS = ("gpt-3.5", "gpt-4", "gpt-4o", "gpt-4o-image")


@dataclass(frozen=True)
class CreditRate:
    credits_per_page: float
    usd_per_credit: float


# The default rates: each PricingConfig, and each pricing file merged by
# load_pricing, starts from copies of these.
_PER_TOKEN = {
    "gpt-3.5": 0.0003 / 600,  # $0.0003 per 600-token call
    "gpt-4": 0.0360 / 600,  # $0.0360 per 600-token call
    "gpt-4o": 0.0030 / 600,  # $0.0030 per 600-token call
    "gpt-4o-azure": 2.5 / 1_000_000,  # Azure-hosted GPT-4o, $2.50 per 1M input tokens
    "vertex": 0.0001935,
    "anthropic": 15 / 1_000_000,  # $15 per 1M tokens
    # offline providers used in tests cost nothing
    "mock": 0.0,
    "lookup": 0.0,
}
# no published per-token image pricing; treated as a constant per call
_PER_CALL_FLAT = {"gpt-4o-image": 0.0765}
_PER_PAGE = {
    "layout-analysis": 375 / 500_000,  # $375 per 500k pages
    "chart-to-table": 0.00006,  # amortized self-hosted extraction
}
_CREDITS = {"llamaparse": CreditRate(credits_per_page=1.0, usd_per_credit=30 / 1000)}


def _number(value, key: str) -> float:
    """``value`` as a float; anything but a finite int or float (a bool
    included) raises ``ValueError`` naming ``key``."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ValueError(f"pricing {key} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class PricingConfig:
    """Every rate: an int or float (not a bool), finite and >= 0, held as a
    float; ``tokens_per_page`` an int >= 1. Anything else raises
    ``ValueError`` naming the group and key."""

    tokens_per_page: int = 600
    per_token: Mapping[str, float] = field(default_factory=_PER_TOKEN.copy)
    per_call_flat: Mapping[str, float] = field(default_factory=_PER_CALL_FLAT.copy)
    per_page: Mapping[str, float] = field(default_factory=_PER_PAGE.copy)
    credits: Mapping[str, CreditRate] = field(default_factory=_CREDITS.copy)

    def __post_init__(self):
        check_count("pricing tokens_per_page", self.tokens_per_page)
        for group in ("per_token", "per_call_flat", "per_page"):
            rates = {}
            for name, rate in getattr(self, group).items():
                rates[name] = _number(rate, f"{group}.{name}")
                if rates[name] < 0:
                    raise ValueError(f"negative rate for {name!r}")
            object.__setattr__(self, group, rates)
        credits = {}
        for name, credit in self.credits.items():
            where = f"credits.{name}"
            credits[name] = CreditRate(
                _number(credit.credits_per_page, f"{where}.credits_per_page"),
                _number(credit.usd_per_credit, f"{where}.usd_per_credit"),
            )
            if credits[name].credits_per_page < 0 or credits[name].usd_per_credit < 0:
                raise ValueError(f"negative credit rate for {name!r}")
        object.__setattr__(self, "credits", credits)


DEFAULT_PRICING = PricingConfig()


@dataclass(frozen=True)
class SolutionCost:
    solution_name: str
    cost_per_page_usd: float
    components: tuple[tuple[str, float], ...]


def cost_per_page(solution: str, pricing: PricingConfig = DEFAULT_PRICING) -> SolutionCost:
    """Per-page cost of one pre-processing solution, with its component
    breakdown; the total is the exact sum of the components."""
    name = solution.lower()
    if name == "llamaparse":
        credit = pricing.credits["llamaparse"]
        components = [("parse credits", credit.credits_per_page * credit.usd_per_credit)]
    elif name == "vertex":
        components = [("processing tokens", pricing.per_token["vertex"] * pricing.tokens_per_page)]
    elif name == "anthropic":
        components = [("model tokens", pricing.per_token["anthropic"] * pricing.tokens_per_page)]
    elif name == "ours":
        components = [
            ("layout analysis", pricing.per_page["layout-analysis"]),
            ("llm tokens", pricing.per_token["gpt-4o-azure"] * pricing.tokens_per_page),
            ("chart extraction", pricing.per_page["chart-to-table"]),
        ]
    else:
        raise ValueError(f"unknown solution {solution!r}; expected one of {SOLUTIONS}")
    return SolutionCost(
        solution_name=name,
        cost_per_page_usd=sum(value for _, value in components),
        components=tuple(components),
    )


def cost_per_call(
    model_tag: str, input_tokens: int, pricing: PricingConfig = DEFAULT_PRICING
) -> float:
    """USD cost of one model call; flat-rate models ignore the token count."""
    if input_tokens < 0:
        raise ValueError("input_tokens must be >= 0")
    if model_tag in pricing.per_call_flat:
        return pricing.per_call_flat[model_tag]
    if model_tag in pricing.per_token:
        return pricing.per_token[model_tag] * input_tokens
    raise ValueError(f"unknown model {model_tag!r}")


def savings_ratio(
    baseline: str, candidate: str, pricing: PricingConfig = DEFAULT_PRICING
) -> float:
    """Cost ratio baseline/candidate for one call at tokens_per_page tokens."""
    baseline_cost = cost_per_call(baseline, pricing.tokens_per_page, pricing)
    candidate_cost = cost_per_call(candidate, pricing.tokens_per_page, pricing)
    if candidate_cost == 0:
        raise ValueError(f"candidate {candidate!r} has zero cost; ratio undefined")
    return baseline_cost / candidate_cost


def load_pricing(path: str | Path) -> PricingConfig:
    """Read pricing overrides from a JSON file and merge onto the defaults.

    A malformed value or an unknown key raises ``ValueError`` naming the key:
    the file's shape here, each value in ``PricingConfig``."""
    data = check_record(read_json(path), "pricing", [f.name for f in fields(PricingConfig)])
    groups = {
        "per_token": _PER_TOKEN.copy(),
        "per_call_flat": _PER_CALL_FLAT.copy(),
        "per_page": _PER_PAGE.copy(),
    }
    for group, rates in groups.items():
        for name, rate in check_record(data.get(group, {}), f"pricing {group}").items():
            rates[str(name)] = rate
    credits = _CREDITS.copy()
    for name, spec in check_record(data.get("credits", {}), "pricing credits").items():
        spec = check_record(spec, f"pricing credits.{name}", [f.name for f in fields(CreditRate)])
        credits[str(name)] = CreditRate(spec.get("credits_per_page"), spec.get("usd_per_credit"))
    tokens = data.get("tokens_per_page", PricingConfig.tokens_per_page)
    return PricingConfig(tokens_per_page=tokens, credits=credits, **groups)


def format_cost_report(pricing: PricingConfig = DEFAULT_PRICING) -> str:
    """Human-readable comparison: per-page costs by solution, then
    per-call costs at tokens_per_page input tokens."""
    lines = ["per-page cost (USD):"]
    for solution in SOLUTIONS:
        cost = cost_per_page(solution, pricing)
        parts = " + ".join(f"{label} {value:.5f}" for label, value in cost.components)
        detail = f"  ({parts})" if len(cost.components) > 1 else ""
        lines.append(f"  {cost.solution_name:<12} {cost.cost_per_page_usd:.5f}{detail}")
    lines.append("")
    lines.append(f"per-call cost at {pricing.tokens_per_page} input tokens (USD):")
    for model in _REPORT_MODELS:
        cost = cost_per_call(model, pricing.tokens_per_page, pricing)
        flat = "  (flat per call)" if model in pricing.per_call_flat else ""
        lines.append(f"  {model:<12} {cost:.4f}{flat}")
    return "\n".join(lines)
