import json
import math
import re

import pytest

from docrag.costs import (
    DEFAULT_PRICING,
    SOLUTIONS,
    CreditRate,
    PricingConfig,
    cost_per_call,
    cost_per_page,
    format_cost_report,
    load_pricing,
    savings_ratio,
)


def close(a, b, tol=1e-9):
    return math.isclose(a, b, rel_tol=0, abs_tol=tol)


# --- per-page costs ----------------------------------------------------------

def test_ours_per_page():
    cost = cost_per_page("ours")
    assert close(cost.cost_per_page_usd, 0.00231)
    assert [label for label, _ in cost.components] == [
        "layout analysis",
        "llm tokens",
        "chart extraction",
    ]
    values = [value for _, value in cost.components]
    assert close(values[0], 0.00075)
    assert close(values[1], 0.0015)
    assert close(values[2], 0.00006)


def test_llamaparse_per_page():
    assert close(cost_per_page("llamaparse").cost_per_page_usd, 0.03)


def test_vertex_per_page():
    assert close(cost_per_page("vertex").cost_per_page_usd, 0.1161)


def test_anthropic_per_page():
    assert close(cost_per_page("anthropic").cost_per_page_usd, 0.009)


def test_totals_are_exact_component_sums():
    for solution in SOLUTIONS:
        cost = cost_per_page(solution)
        assert close(cost.cost_per_page_usd, sum(v for _, v in cost.components), tol=1e-12)


def test_per_page_ordering():
    totals = [cost_per_page(s).cost_per_page_usd for s in ("ours", "anthropic", "llamaparse", "vertex")]
    assert totals == sorted(totals)
    assert len(set(totals)) == 4


def test_unknown_solution_rejected():
    with pytest.raises(ValueError, match="unknown solution"):
        cost_per_page("watson")


def test_case_insensitive_solution_names():
    assert cost_per_page("Ours").solution_name == "ours"


def test_tokens_per_page_zero_rejected():
    with pytest.raises(ValueError):
        PricingConfig(tokens_per_page=0)


def test_doubling_tokens_doubles_token_components():
    doubled = PricingConfig(tokens_per_page=1200)
    ours = dict(cost_per_page("ours", doubled).components)
    assert close(ours["llm tokens"], 2 * 0.0015)
    assert close(ours["layout analysis"], 0.00075)  # per-page part unchanged
    assert close(cost_per_page("anthropic", doubled).cost_per_page_usd, 2 * 0.009)
    assert close(cost_per_page("llamaparse", doubled).cost_per_page_usd, 0.03)


# --- per-call costs -------------------------------------------------------------

def test_per_call_at_600_tokens():
    assert close(cost_per_call("gpt-3.5", 600), 0.0003)
    assert close(cost_per_call("gpt-4", 600), 0.0360)
    assert close(cost_per_call("gpt-4o", 600), 0.0030)
    assert close(cost_per_call("gpt-4o-image", 600), 0.0765)


def test_flat_model_ignores_tokens():
    assert cost_per_call("gpt-4o-image", 0) == cost_per_call("gpt-4o-image", 10_000) == 0.0765


def test_zero_tokens_cost_zero():
    for model in ("gpt-3.5", "gpt-4", "gpt-4o", "anthropic", "vertex"):
        assert cost_per_call(model, 0) == 0.0


def test_per_call_linearity():
    assert close(cost_per_call("gpt-3.5", 1200), 0.0006)
    assert close(cost_per_call("gpt-4o", 1800), 3 * 0.0030)


def test_offline_providers_are_free():
    assert cost_per_call("mock", 600) == 0.0
    assert cost_per_call("lookup", 600) == 0.0


def test_unknown_model_rejected():
    with pytest.raises(ValueError, match="unknown model"):
        cost_per_call("gpt-9", 600)


def test_negative_tokens_rejected():
    with pytest.raises(ValueError):
        cost_per_call("gpt-4o", -1)


# --- savings ratios ----------------------------------------------------------------

def test_image_to_gpt35_ratio():
    assert close(savings_ratio("gpt-4o-image", "gpt-3.5"), 255.0)


def test_image_to_gpt4o_ratio():
    assert close(savings_ratio("gpt-4o-image", "gpt-4o"), 25.5)


def test_gpt4o_ratios():
    assert close(savings_ratio("gpt-4o", "gpt-3.5"), 10.0)
    assert close(savings_ratio("gpt-4", "gpt-4o"), 12.0)


def test_ratio_of_model_with_itself():
    assert close(savings_ratio("gpt-4o", "gpt-4o"), 1.0)


def test_zero_cost_candidate_rejected():
    with pytest.raises(ValueError, match="zero cost"):
        savings_ratio("gpt-4o", "mock")


# --- pricing overrides ----------------------------------------------------------------

def test_load_pricing_merges_onto_defaults(tmp_path):
    path = tmp_path / "pricing.json"
    path.write_text(
        json.dumps(
            {
                "tokens_per_page": 1200,
                "per_token": {"gpt-4o": 0.00001},
                "per_call_flat": {"gpt-4o-image": 0.05},
                "per_page": {"layout-analysis": 0.001},
                "credits": {"llamaparse": {"credits_per_page": 2.0, "usd_per_credit": 0.01}},
            }
        ),
        encoding="utf-8",
    )
    pricing = load_pricing(path)
    assert pricing.tokens_per_page == 1200
    assert close(cost_per_call("gpt-4o", 100, pricing), 0.001)
    assert close(cost_per_call("gpt-4o-image", 9, pricing), 0.05)
    assert close(cost_per_page("llamaparse", pricing).cost_per_page_usd, 0.02)
    # untouched defaults survive the merge
    assert close(cost_per_call("gpt-3.5", 600, pricing), 0.0003)
    assert close(cost_per_page("anthropic", pricing).cost_per_page_usd, 2 * 0.009)



def test_load_pricing_leaves_the_default_rates_unchanged(tmp_path):
    # Every PricingConfig and every merged file starts from the same default dicts.
    before = PricingConfig()
    path = tmp_path / "pricing.json"
    path.write_text(
        json.dumps(
            {
                "per_token": {"gpt-4o": 1.0, "new-model": 2.0},
                "per_call_flat": {"gpt-4o-image": 1.0},
                "per_page": {"chart-to-table": 1.0},
                "credits": {"llamaparse": {"credits_per_page": 9.0, "usd_per_credit": 1.0}},
            }
        ),
        encoding="utf-8",
    )
    pricing = load_pricing(path)
    pricing.per_token["gpt-3.5"] = 3.0  # the groups are plain dicts, each its own
    assert pricing.per_token["gpt-4o"] == 1.0
    assert PricingConfig() == before == DEFAULT_PRICING
    assert DEFAULT_PRICING.per_token["gpt-4o"] == 0.0030 / 600
    assert "new-model" not in PricingConfig().per_token
    assert load_pricing(path).per_token["gpt-3.5"] == 0.0003 / 600


def test_load_pricing_empty_file_is_defaults(tmp_path):
    path = tmp_path / "pricing.json"
    path.write_text("{}", encoding="utf-8")
    pricing = load_pricing(path)
    for solution in SOLUTIONS:
        assert close(
            cost_per_page(solution, pricing).cost_per_page_usd,
            cost_per_page(solution, DEFAULT_PRICING).cost_per_page_usd,
            tol=1e-15,
        )


def test_negative_rates_rejected():
    with pytest.raises(ValueError, match="negative rate"):
        PricingConfig(per_token={"gpt-4o": -1.0})
    with pytest.raises(ValueError, match="negative credit"):
        PricingConfig(credits={"llamaparse": CreditRate(-1.0, 0.03)})


# Rates the constructor refuses as load_pricing does, each as (fields, text the message names).
REFUSED_PRICING = {
    "nan-rate": ({"per_token": {"gpt-4o": math.nan}}, "per_token.gpt-4o"),
    "inf-rate": ({"per_call_flat": {"gpt-4o-image": math.inf}}, "per_call_flat.gpt-4o-image"),
    "bool-rate": ({"per_token": {"gpt-4o": True}}, "per_token.gpt-4o"),
    "string-rate": ({"per_page": {"chart-to-table": "0.5"}}, "per_page.chart-to-table"),
    "huge-int-rate": ({"per_token": {"gpt-4o": 10**400}}, "per_token.gpt-4o"),
    "nan-credit-rate": (
        {"credits": {"x": CreditRate(1.0, math.nan)}}, "credits.x.usd_per_credit"
    ),
    "null-credit-rate": (
        {"credits": {"x": CreditRate(None, 0.1)}}, "credits.x.credits_per_page"
    ),
    "bool-tokens-per-page": ({"tokens_per_page": True}, "tokens_per_page"),
    "float-tokens-per-page": ({"tokens_per_page": 600.0}, "tokens_per_page"),
}


@pytest.mark.parametrize("case", REFUSED_PRICING)
def test_pricing_config_refuses_what_load_pricing_refuses(case):
    # nan priced a call at nan, inf at inf, and True priced 600 tokens at 600.
    kwargs, key = REFUSED_PRICING[case]
    with pytest.raises(ValueError, match=re.escape(key)):
        PricingConfig(**kwargs)


def test_pricing_config_holds_each_rate_as_a_float():
    pricing = PricingConfig(
        per_token={"gpt-4o": 1}, credits={"x": CreditRate(credits_per_page=2, usd_per_credit=0)}
    )
    assert type(pricing.per_token["gpt-4o"]) is float
    assert cost_per_call("gpt-4o", 600, pricing) == 600.0
    assert (pricing.credits["x"].credits_per_page, pricing.credits["x"].usd_per_credit) == (2.0, 0.0)


# --- report formatting ----------------------------------------------------------------

def test_report_contains_table_shaped_values():
    report = format_cost_report()
    assert "per-page cost (USD):" in report
    assert "0.00231" in report
    assert "0.03000" in report
    assert "0.11610" in report
    assert "0.00900" in report
    assert "per-call cost at 600 input tokens (USD):" in report
    assert "0.0003" in report
    assert "0.0360" in report
    assert "0.0765" in report
    assert "(flat per call)" in report


def test_report_lists_every_solution():
    report = format_cost_report()
    for solution in SOLUTIONS:
        assert solution in report
