"""D1 defense-experiment tests."""

from repro.experiments.defense import format_defense, run_defense_experiment


class TestDefenseExperiment:
    def test_headline_comparison(self):
        # c1908 at scale 0.25 has 8 primary inputs; distance-3 tap
        # codes over 8 columns max out at 4 rows (Hamming bound), so
        # |K| = 4 is the largest guaranteed configuration here.
        result = run_defense_experiment(
            circuit="c1908",
            scale=0.25,
            key_size=4,
            effort=2,
            time_limit_per_task=120.0,
        )
        by_name = {cell.scheme: cell for cell in result.cells}
        sarlock = by_name["sarlock"]
        entangled = by_name["entangled"]
        # The defense closes the multi-key loophole...
        assert entangled.subspace_keys == 1
        assert sarlock.subspace_keys > 1
        # ... so sub-attacks stop getting cheaper in DIP terms.
        assert entangled.max_dips >= sarlock.max_dips
        assert sarlock.status == entangled.status == "ok"

    def test_format(self):
        result = run_defense_experiment(
            circuit="c1908",
            scale=0.25,
            key_size=4,
            effort=1,
            time_limit_per_task=120.0,
        )
        text = format_defense(result)
        assert "D1" in text
        assert "sarlock" in text and "entangled" in text
