"""Tests for the reproduction scorecard (claim checking machinery)."""

import pytest

from repro.experiments.scorecard import (
    Claim,
    ClaimResult,
    Scorecard,
    _claims,
    evaluate_claims,
)


def make_result(passed, essential=True, fig="4.1", text="t"):
    claim = Claim(figure_id=fig, text=text, essential=essential,
                  check=lambda figs: passed)
    return ClaimResult(claim=claim, passed=passed)


def test_claim_inventory_covers_every_figure():
    figures = {claim.figure_id for claim in _claims()}
    assert figures == {"4.1", "4.2", "4.3", "4.4", "4.5", "4.6", "4.7"}


def test_claim_inventory_has_essential_and_detail_tiers():
    claims = _claims()
    assert any(claim.essential for claim in claims)
    assert any(not claim.essential for claim in claims)
    assert len(claims) >= 15


def test_all_essential_pass_logic():
    card = Scorecard(results=(
        make_result(True, essential=True),
        make_result(False, essential=False),
    ))
    assert card.all_essential_pass
    assert card.passed_count == 1

    failing = Scorecard(results=(make_result(False, essential=True),))
    assert not failing.all_essential_pass


def test_to_text_formats():
    card = Scorecard(results=(
        make_result(True, text="claim one"),
        make_result(False, essential=False, text="claim two"),
    ))
    text = card.to_text()
    assert "claim one" in text
    assert "PASS" in text and "MISS" in text
    assert "1/2 claims" in text


def test_checks_are_resilient_to_missing_curves():
    """A check raising KeyError is reported as MISS, not a crash."""
    claim = Claim("4.1", "x", True,
                  check=lambda figs: figs["4.1"].curve("no-such")
                  and True)
    card = evaluate_claims({}, [claim])
    (result,) = card.results
    assert result.passed is False
    assert result.error == "KeyError: '4.1'"
    assert "MISS (KeyError: '4.1')" in card.to_text()


@pytest.mark.slow
def test_claims_reference_real_curve_labels(tmp_path):
    """Every claim must evaluate cleanly against real figure output."""
    from repro.experiments import ResultCache, RunSettings
    from repro.experiments.scorecard import run_scorecard

    # Figures 4.1-4.7 share many points, so a cache skips the repeats.
    cache = ResultCache(tmp_path)
    card = run_scorecard(RunSettings(warmup_time=2.0, measure_time=6.0),
                         cache=cache)
    assert cache.hits > 0
    # At this microscopic horizon outcomes are noisy (a claim may MISS),
    # but every claim must find the curve labels and rates it reads.
    assert len(card.results) == len(_claims())
    errors = {result.claim.text: result.error for result in card.results
              if result.error is not None}
    assert errors == {}
