"""Ablation — RFC 9312 filtering on the measured scan data.

The paper's conclusion: spin-bit estimates "can benefit from further
research, e.g., studying the usefulness of filtering techniques
described in RFC 9312".  This bench runs that study on the campaign's
own spin-active connections (not a synthetic stress test): the static
floor and hold-time heuristics must not distort clean measurements, and
any ultra-short reordering artifacts they remove shrink the
underestimation share.
"""

from repro.analysis.filter_study import run_filter_study


def test_ablation_rtt_filters(benchmark, accuracy_records):
    study = benchmark.pedantic(
        run_filter_study, args=(accuracy_records,), rounds=1, iterations=1
    )
    print()
    for outcome in study.outcomes():
        print(
            f"  {outcome.label:22s} n={outcome.connections:5d}"
            f"  within25%={outcome.within_25pct_share * 100:5.1f} %"
            f"  underest={outcome.underestimate_share * 100:5.2f} %"
            f"  lost={outcome.connections_lost}"
        )

    raw = study.raw
    assert raw.connections > 400

    # Filtering never invents connections, and loses almost none at
    # this vantage point (reordering is rare, Section 5.2).
    for outcome in (study.static, study.hold_time, study.combined):
        assert outcome.connections + outcome.connections_lost == raw.connections
        assert outcome.connections_lost < raw.connections * 0.02

    # The filters do not distort the overall accuracy picture ...
    for outcome in (study.static, study.hold_time, study.combined):
        assert abs(outcome.within_25pct_share - raw.within_25pct_share) < 0.05

    # ... and they can only reduce the underestimation share (the
    # static floor drops implausibly short samples and nothing else;
    # the hold-time merge may shift means slightly either way).
    assert study.static.underestimate_share <= raw.underestimate_share + 1e-9
    assert study.combined.underestimate_share <= raw.underestimate_share + 0.01
