"""API cost accounting: per-call, per-page, and savings ratios.

All rates live in a PricingConfig so they can be overridden from a JSON
file when vendor pricing drifts. Text-model per-token rates are
back-derived from published per-call costs at 600 input tokens; the
image-call cost is a flat constant because no per-token image pricing is
published.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

SOLUTIONS = ("ours", "anthropic", "llamaparse", "vertex")

_REPORT_MODELS = ("gpt-3.5", "gpt-4", "gpt-4o", "gpt-4o-image")


@dataclass(frozen=True)
class CreditRate:
    credits_per_page: float
    usd_per_credit: float


def _default_per_token() -> dict[str, float]:
    return {
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


def _default_per_call_flat() -> dict[str, float]:
    # no published per-token image pricing; treated as a constant per call
    return {"gpt-4o-image": 0.0765}


def _default_per_page() -> dict[str, float]:
    return {
        "layout-analysis": 375 / 500_000,  # $375 per 500k pages
        "chart-to-table": 0.00006,  # amortized self-hosted extraction
    }


def _default_credits() -> dict[str, CreditRate]:
    return {"llamaparse": CreditRate(credits_per_page=1.0, usd_per_credit=30 / 1000)}


@dataclass(frozen=True)
class PricingConfig:
    tokens_per_page: int = 600
    per_token: Mapping[str, float] = field(default_factory=_default_per_token)
    per_call_flat: Mapping[str, float] = field(default_factory=_default_per_call_flat)
    per_page: Mapping[str, float] = field(default_factory=_default_per_page)
    credits: Mapping[str, CreditRate] = field(default_factory=_default_credits)

    def __post_init__(self):
        if self.tokens_per_page < 1:
            raise ValueError("tokens_per_page must be >= 1")
        for group in (self.per_token, self.per_call_flat, self.per_page):
            for name, rate in group.items():
                if rate < 0:
                    raise ValueError(f"negative rate for {name!r}")
        for name, credit in self.credits.items():
            if credit.credits_per_page < 0 or credit.usd_per_credit < 0:
                raise ValueError(f"negative credit rate for {name!r}")


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


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"pricing {key} must be a JSON object, got {value!r}")
    return value


def _number(value, key: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"pricing {key} must be a finite number, got {value!r}")
    return number


def load_pricing(path: str | Path) -> PricingConfig:
    """Read pricing overrides from a JSON file and merge onto the defaults.

    A malformed value raises ``ValueError`` naming its key."""
    with open(path, encoding="utf-8") as handle:
        data = _object(json.load(handle), "file")
    groups = {
        "per_token": _default_per_token(),
        "per_call_flat": _default_per_call_flat(),
        "per_page": _default_per_page(),
    }
    for group, rates in groups.items():
        for name, rate in _object(data.get(group, {}), group).items():
            rates[str(name)] = _number(rate, f"{group}.{name}")
    credits = _default_credits()
    for name, spec in _object(data.get("credits", {}), "credits").items():
        where = f"credits.{name}"
        spec = _object(spec, where)
        credits[str(name)] = CreditRate(
            credits_per_page=_number(spec.get("credits_per_page"), f"{where}.credits_per_page"),
            usd_per_credit=_number(spec.get("usd_per_credit"), f"{where}.usd_per_credit"),
        )
    tokens = data.get("tokens_per_page", PricingConfig.tokens_per_page)
    if type(tokens) is not int:
        raise ValueError(f"pricing tokens_per_page must be an integer, got {tokens!r}")
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
