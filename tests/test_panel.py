import io

import numpy as np
import pytest

from panelctrl.errors import (
    DuplicateCellError,
    MissingCellError,
    PanelFormatError,
    TreatmentTimeError,
    UnknownUnitError,
)
from panelctrl.panel import (
    PanelBlocks,
    PanelData,
    load_panel,
    periods_preceding,
    split_and_center,
)

from conftest import make_panel


def _csv(rows, header="unit,time,outcome"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def _grid_csv(units, times, value=lambda u, t: 1.0 + 0.1 * t):
    rows = [f"{u},{t},{value(i, j)}" for i, u in enumerate(units) for j, t in enumerate(times)]
    return _csv(rows)


class TestLoadPanel:
    def test_small_reshape(self):
        src = _csv(
            [
                "KS,1,1.0", "KS,2,1.1", "KS,3,1.2", "KS,4,1.3",
                "NE,1,2.0", "NE,2,2.1", "NE,3,2.2", "NE,4,2.3",
                "MO,1,3.0", "MO,2,3.1", "MO,3,3.2", "MO,4,3.3",
            ]
        )
        p = load_panel(src, "KS", 3)
        assert p.n_units == 3
        assert p.n_periods == 4
        assert p.t0 == 2
        assert p.unit_ids[p.treated_index] == "KS"
        assert p.outcomes[p.treated_index, 0] == 1.0

    def test_application_scale(self):
        units = [f"s{i:02d}" for i in range(51)]
        times = list(range(1, 106))
        p = load_panel(_grid_csv(units, times), "s00", 90)
        assert p.t0 == 89
        assert p.n_donors == 50
        assert p.n_periods == 105

    def test_missing_cell_names_unit_and_time(self):
        rows = [
            "a,1,1.0", "a,2,1.1", "a,3,1.2",
            "b,1,2.0", "b,3,2.2",
            "c,1,3.0", "c,2,3.1", "c,3,3.2",
        ]
        with pytest.raises(MissingCellError) as err:
            load_panel(_csv(rows), "a", 3)
        assert err.value.unit == "b"
        assert err.value.time == "2"

    def test_blank_outcome_is_missing(self):
        rows = ["a,1,1.0", "a,2,", "b,1,2.0", "b,2,2.1", "c,1,0.5", "c,2,0.7"]
        with pytest.raises(MissingCellError):
            load_panel(_csv(rows), "a", 2)

    def test_duplicate_cell(self):
        rows = ["a,1,1.0", "a,1,1.5", "b,1,2.0"]
        with pytest.raises(DuplicateCellError):
            load_panel(_csv(rows), "a", 1)

    def test_unknown_treated(self):
        with pytest.raises(UnknownUnitError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "zz", 3)

    def test_treatment_at_first_period(self):
        with pytest.raises(TreatmentTimeError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "a", 1)

    def test_treatment_past_last_period(self):
        with pytest.raises(TreatmentTimeError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3, 4]), "a", 99)

    @pytest.mark.parametrize(
        "source", [42, ["unit,time,outcome", "a,1,1.0"], [{"unit": "a", "time": 1, "outcome": 1.0}]]
    )
    def test_source_neither_path_nor_file_rejected(self, source):
        with pytest.raises(PanelFormatError, match="CSV path or file object"):
            load_panel(source, "a", 2)

    def test_single_pre_period_rejected(self):
        with pytest.raises(TreatmentTimeError):
            load_panel(_grid_csv(["a", "b"], [1, 2, 3]), "a", 2)

    def test_string_times_sort_lexicographically(self):
        rows = [
            "a,q1,1.0", "a,q2,1.1", "a,q3,1.2",
            "b,q1,2.0", "b,q2,2.1", "b,q3,2.2",
        ]
        p = load_panel(_csv(rows), "a", "q3")
        assert p.time_ids == ("q1", "q2", "q3")
        assert p.t0 == 2

    def test_numeric_times_sort_numerically(self):
        rows = [
            "a,2,1.0", "a,10,1.1", "a,1,0.9",
            "b,2,2.0", "b,10,2.1", "b,1,1.9",
        ]
        p = load_panel(_csv(rows), "a", 10)
        assert [float(v) for v in p.time_ids] == [1.0, 2.0, 10.0]
        assert p.t0 == 2

    def test_mixed_labels_fall_back_to_string_order(self):
        rows = [
            "a,q1,1.0", "a,2,1.1", "a,q3,1.2",
            "b,q1,2.0", "b,2,2.1", "b,q3,2.2",
        ]
        p = load_panel(_csv(rows), "a", "q3")
        assert p.time_ids == ("2", "q1", "q3")  # lexicographic fallback
        assert p.t0 == 2

    def test_non_numeric_treatment_time_on_numeric_axis(self):
        rows = [f"{u},{t},{v}" for u in ("a", "b") for t, v in ((1, 1.0), (2, 2.0), (3, 3.0))]
        with pytest.raises(TreatmentTimeError, match="not numeric"):
            load_panel(_csv(rows), "a", "q1")


class TestPeriodsPreceding:
    def test_numeric_axis(self):
        assert periods_preceding(("1", "2", "10", "11"), "10") == 2
        assert periods_preceding((1, 2, 10, 11), 10.5) == 3

    def test_string_axis_compares_strings(self):
        assert periods_preceding(("2012Q1", "2012Q2", "2012Q3"), "2012Q3") == 2
        # mixed labels order as strings, so a numeric label does too
        assert periods_preceding(("2", "q1", "q3"), "3") == 1

    def test_label_kind_mismatch(self):
        with pytest.raises(TreatmentTimeError):
            periods_preceding((1, 2, 3), "q1")


class TestPanelData:
    def test_nan_rejected(self):
        out = np.ones((3, 4))
        out[1, 2] = np.nan
        with pytest.raises(MissingCellError):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 2)

    def test_t0_bounds(self):
        out = np.ones((3, 4))
        with pytest.raises(TreatmentTimeError):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 1)
        with pytest.raises(TreatmentTimeError):
            PanelData(out, ("a", "b", "c"), (1, 2, 3, 4), 0, 4)

    def test_times_must_increase(self):
        with pytest.raises(PanelFormatError):
            PanelData(np.ones((2, 3)), ("a", "b"), (3, 2, 4), 0, 2)

    def test_immutable(self, rng):
        p = make_panel(rng, 4, 6, 4)
        with pytest.raises(ValueError):
            p.outcomes[0, 0] = 99.0


class TestSplitAndCenter:
    def test_hand_arithmetic(self):
        out = np.array([[5.0, 5.0, 9.0], [1.0, 3.0, 7.0], [3.0, 5.0, 8.0]])
        p = PanelData(out, ("t", "d1", "d2"), (1, 2, 3), 0, 2)
        blocks = split_and_center(p, center=True)
        assert np.allclose(blocks.centering, [2.0, 4.0])
        assert np.allclose(blocks.x0, [[-1.0, -1.0], [1.0, 1.0]])
        assert np.allclose(blocks.x1, [3.0, 1.0])
        assert np.allclose(blocks.y0_post[:, 0], [7.0, 8.0])
        assert blocks.y1_post[0] == 9.0

    def test_uncentered_zero_shift(self, rng):
        p = make_panel(rng, 5, 8, 5)
        blocks = split_and_center(p, center=False)
        assert np.all(blocks.centering == 0.0)
        assert np.allclose(blocks.x0, p.outcomes[1:, :5])

    def test_centering_inverse(self, rng):
        p = make_panel(rng, 6, 9, 6)
        blocks = split_and_center(p, center=True)
        restored = blocks.x0 + blocks.centering
        assert np.abs(restored - p.outcomes[1:, :6]).max() < 1e-14

    def test_column_means_tiny(self, rng):
        for _ in range(20):
            p = make_panel(rng, 7, 10, 7)
            blocks = split_and_center(p, center=True)
            assert np.abs(blocks.x0.mean(axis=0)).max() < 1e-12

    def test_stacking_reconstructs_panel(self, rng):
        p = make_panel(rng, 6, 9, 6, treated_index=2)
        blocks = split_and_center(p, center=False)
        full = np.empty_like(p.outcomes)
        full[p.treated_index] = np.concatenate([blocks.x1, blocks.y1_post])
        full[p.donor_indices] = np.hstack([blocks.x0, blocks.y0_post])
        assert np.array_equal(full, p.outcomes)

    def test_blocks_validation(self):
        with pytest.raises(PanelFormatError):
            PanelBlocks(
                x1=np.ones(3),
                x0=np.ones((4, 3)),
                y0_post=np.ones((4, 1)),
                y1_post=np.ones(1),
                centering=np.ones(3),  # claims centered but means are 1.0
            )

    def test_blocks_reject_non_finite(self):
        x0 = np.zeros((4, 3))
        x0[2, 1] = np.inf
        with pytest.raises(PanelFormatError):
            PanelBlocks(
                x1=np.ones(3), x0=x0, y0_post=np.ones((4, 1)), y1_post=np.ones(1)
            )
