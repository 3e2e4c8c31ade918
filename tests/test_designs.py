import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designgen import (
    dense_design_matrix,
    random_correlation,
    random_grid,
    random_single_treatment_grid,
)
from swedge import designs
from swedge.covariance import CovarianceModel
from swedge.designs import (
    DesignError,
    DesignGrid,
    UnknownDesignError,
    catalog_design,
    catalog_ids,
    concurrent_design,
    generate_standard_swd,
    parse_design,
    serialize_design,
    validate_design,
)
from swedge.variance import active_effects, closed_form_covariance

C, T1, T2, B = 0, 1, 2, 3


def all_control(n_clusters=4, n_periods=3):
    return DesignGrid([[C] * n_periods] * n_clusters)


class TestGridStructure:
    def test_ragged_rows_are_a_structural_error(self):
        with pytest.raises(DesignError, match="ragged"):
            DesignGrid([[0, 1], [0, 1, 1]])

    def test_empty_grid(self):
        with pytest.raises(DesignError):
            DesignGrid([])

    def test_single_period_rejected(self):
        with pytest.raises(DesignError):
            DesignGrid([[0], [1]])

    def test_unknown_code(self):
        with pytest.raises(DesignError, match="condition code"):
            DesignGrid([[0, 4]])

    @pytest.mark.parametrize("rows, row, cell", [
        ([[0, True], [0, 1]], 1, True),
        ([[0, 1], [0, False]], 2, False),
        ([[0, np.True_], [0, 1]], 1, True),
        (([0, 1], (0, np.bool_(False))), 2, False),
        ([[False, True], [False, True]], 1, False),
    ])
    def test_bool_cells_are_not_codes(self, rows, row, cell):
        with pytest.raises(DesignError) as info:
            DesignGrid(rows)
        assert str(info.value) == f"row {row}: unknown condition code {cell!r}"

    @pytest.mark.parametrize("rows, message", [
        ([[0, np.int64(7)], [0, 1]], "row 1: unknown condition code 7"),
        ([[0, 1], [np.int8(-1), 0]], "row 2: unknown condition code -1"),
        ([[0, np.float64(1.0)], [0, 1]], "row 1: unknown condition code 1.0"),
        ([np.array([0, 9]), [0, 1]], "row 1: unknown condition code 9"),
    ], ids=["int64", "int8", "float64", "array-row"])
    def test_numpy_scalar_cells_are_named_by_their_python_value(self, rows, message):
        # the text does not depend on how the numpy version prints its scalars
        with pytest.raises(DesignError) as info:
            DesignGrid(rows)
        assert str(info.value) == message

    def test_arrays_are_judged_by_their_dtype(self):
        with pytest.raises(DesignError, match="row 1: unknown condition code False"):
            DesignGrid(np.array([[False, True], [False, True]]))
        # numpy has already read this array's True as 1
        assert DesignGrid(np.array([[0, True], [0, 1]])).to_codes() == [[0, 1], [0, 1]]
        # a cell of a 3-d array is a row of codes, not a code
        with pytest.raises(DesignError, match=r"row 1: unknown condition code \[0, 0\]"):
            DesignGrid(np.zeros((2, 3, 2), int))

    def test_an_object_array_is_read_cell_by_cell(self):
        cells = [[0, 1, 3], [2, 3, 0]]
        grid = DesignGrid(np.array(cells, dtype=object))
        assert grid == DesignGrid(np.array(cells)) and grid.codes.dtype == np.int8

    @pytest.mark.parametrize("cell", [True, 4])
    def test_an_object_array_names_its_bad_cell(self, cell):
        with pytest.raises(DesignError) as info:
            DesignGrid(np.array([[0, 1], [1, cell]], dtype=object))
        assert str(info.value) == f"row 2: unknown condition code {cell!r}"

    def test_a_grid_of_numpy_integers_is_read_cell_by_cell(self):
        # each cell read on its own becomes a Python int through tolist
        calls = []

        class Code(np.int64):
            def tolist(self):
                calls.append(self)
                return super().tolist()

        grid = DesignGrid([[Code(0), Code(1)], [Code(2), Code(3)]])
        assert grid.to_codes() == [[0, 1], [2, 3]]
        assert calls == [0, 1, 2, 3]

    def test_zero_dimensional_arrays_are_read_cell_by_cell(self):
        # a 0-d array, like a numpy scalar, is read as its tolist() value
        cells = [[np.array(0), np.array(1)], [np.array(0), np.array(1)]]
        assert DesignGrid(cells) == DesignGrid([[0, 1], [0, 1]])

    def test_counts_and_indicators(self):
        grid = DesignGrid([[C, T1, B], [C, T2, T2]])
        assert grid.condition_counts() == {C: 2, T1: 1, T2: 2, B: 1}
        x, w = grid.indicators()
        assert x.tolist() == [[0, 1, 1], [0, 0, 0]]
        assert w.tolist() == [[0, 0, 1], [0, 1, 1]]

    def test_swap_treatments_exchanges_the_two_bits(self):
        grid = DesignGrid([[C, T1, T2, B]], label="x", reconstructed=True)
        swapped = grid.swap_treatments()
        assert swapped.to_codes() == [[C, T2, T1, B]]
        assert (swapped.label, swapped.reconstructed) == ("x", True)
        assert swapped.swap_treatments() == grid

    def test_codes_are_a_read_only_copy(self):
        source = np.array([[C, T1], [C, B]], dtype=np.int8)
        grid = DesignGrid(source, label="x", reconstructed=True)
        with pytest.raises(ValueError):
            grid.codes[0, 0] = B
        source[0, 0] = B
        assert grid.to_codes() == [[C, T1], [C, B]]
        assert source.flags.writeable
        for copied in (copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
            assert copied == grid and copied.reconstructed == grid.reconstructed
            with pytest.raises(ValueError):
                copied.codes[0, 0] = B


def _closed_form(grid, cs, additive):
    try:
        cov = closed_form_covariance(grid, cs, additive)
    except ValueError as exc:
        return str(exc)
    return cov.labels, cov.matrix.tobytes()


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(tuple(CovarianceModel)))
def test_derived_grids_get_forms_of_their_own(seed, model):
    rng = np.random.default_rng(seed)
    grid = random_grid(rng)
    single = random_single_treatment_grid(rng)
    cs = random_correlation(rng, model).cov_entries()
    cached = grid.forms, single.forms  # made before any grid is derived
    expected = _closed_form(grid, cs, False), _closed_form(single, cs, False)  # fills forms
    derived = [
        (grid.swap_treatments(), grid),
        (grid.permute_clusters(rng.permutation(grid.n_clusters).tolist()), grid),
        (grid.relabel("other"), grid),
        (copy.copy(grid), grid),
        (copy.deepcopy(grid), grid),
        (pickle.loads(pickle.dumps(grid)), grid),
        (concurrent_design(single, single.swap_treatments()), single),
    ]
    for child, parent in derived:
        assert child.forms is not parent.forms
        fresh = parse_design(serialize_design(child, fmt="json"))
        for additive in (False, True):
            assert active_effects(child, additive) == active_effects(fresh, additive)
            assert _closed_form(child, cs, additive) == _closed_form(fresh, cs, additive)
        assert child.forms == fresh.forms
    assert grid.forms is cached[0] and single.forms is cached[1]
    assert (_closed_form(grid, cs, False), _closed_form(single, cs, False)) == expected


class TestValidation:
    def test_figure1_layout_is_clean(self):
        assert validate_design(catalog_design("fig1")) == []

    def test_all_control_grid_is_clean(self):
        assert validate_design(all_control()) == []

    def test_treatment_swap_is_flagged_at_the_cell(self):
        grid = DesignGrid([[C, T1, T2], [C, C, T1]])
        violations = validate_design(grid)
        assert len(violations) == 1
        v = violations[0]
        assert (v.cluster_index, v.period_index) == (0, 2)
        assert (v.before, v.after) == (T1, T2)
        assert str(v) == "cluster 1, period 3: TRT1 -> TRT2"

    @pytest.mark.parametrize(
        "row",
        [
            [C, T2, T1],   # swapping treatments
            [C, B, T1],    # dropping down from the combined condition
            [C, B, T2],
            [C, T1, C],    # returning to control
            [C, B, C],
            [T2, C, T2],
        ],
    )
    def test_disallowed_transitions(self, row):
        assert validate_design(DesignGrid([row])) != []

    @pytest.mark.parametrize(
        "row",
        [[C, C, T1], [C, T1, B], [C, T2, B], [C, C, B], [C, B, B], [T1, T1, B]],
    )
    def test_allowed_transitions(self, row):
        assert validate_design(DesignGrid([row])) == []

    # The transition table the bit rule replaced: a cluster may stay put,
    # start from control, or add the second treatment to a single one.
    OLD_ALLOWED = {
        (C, C), (C, T1), (C, T2), (C, B),
        (T1, T1), (T1, B), (T2, T2), (T2, B), (B, B),
    }

    def test_bit_rule_flags_what_the_old_transition_table_barred(self):
        pairs = {(before, after) for before in (C, T1, T2, B) for after in (C, T1, T2, B)}
        flagged = {pair for pair in pairs if validate_design(DesignGrid([pair]))}
        assert flagged == pairs - self.OLD_ALLOWED
        assert len(flagged) == 7

    def test_violations_are_listed_row_major(self):
        grid = DesignGrid([[T1, C, T1, T2], [B, T2, C, C]])
        found = [(v.cluster_index, v.period_index, v.before, v.after)
                 for v in validate_design(grid)]
        assert found == [
            (0, 1, T1, C),
            (0, 3, T1, T2),
            (1, 1, B, T2),
            (1, 2, T2, C),
        ]


class TestDesignMatrix:
    """The dense fixed-effects matrix the Schur-complement checks build on."""

    def test_two_period_single_treatment_block(self):
        grid = DesignGrid([[C, T1]])
        z = dense_design_matrix(grid)
        assert z.tolist() == [[1, 1, 0, 0, 0], [1, 0, 1, 0, 0]]

    def test_both_condition_sets_all_three_columns(self):
        grid = DesignGrid([[C, B]])
        z = dense_design_matrix(grid)[:, grid.n_periods :]
        assert z[:, 0].tolist() == [0, 1]
        assert z[:, 1].tolist() == [0, 1]
        assert z[:, 2].tolist() == [0, 1]

    def test_figure1_treated_cell_count(self):
        # two clusters per sequence stepping at periods 2, 3, 4
        grid = catalog_design("fig1")
        assert dense_design_matrix(grid)[:, grid.n_periods].sum() == 12

    def test_intercept_and_reference_period(self):
        grid = catalog_design("fig2b")
        t = grid.n_periods
        z = dense_design_matrix(grid)
        assert np.all(z[:, 0] == 1.0)
        for i in range(grid.n_clusters):
            block = z[i * t : (i + 1) * t]
            # last period has all-zero period indicators
            assert np.all(block[-1, 1:t] == 0.0)
            assert np.all(block[: t - 1, 1:t] == np.eye(t - 1))

    def test_product_column_is_elementwise_product(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            grid = random_grid(rng)
            cols = dense_design_matrix(grid)[:, grid.n_periods :]
            assert np.array_equal(cols[:, 2], cols[:, 0] * cols[:, 1])


class TestGenerators:
    def test_standard_swd_matches_figure1(self):
        grid = generate_standard_swd(3, 2, T1)
        assert grid.to_codes() == [
            [0, 1, 1, 1],
            [0, 1, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 1],
            [0, 0, 0, 1],
        ]

    def test_smallest_swd(self):
        grid = generate_standard_swd(1, 1)
        assert grid.to_codes() == [[0, 1]]

    def test_treatment2_variant_is_a_label_swap(self):
        g1 = generate_standard_swd(3, 2, T1)
        g2 = generate_standard_swd(3, 2, T2)
        assert g2 == g1.swap_treatments()

    def test_generated_designs_always_validate(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = int(rng.integers(1, 7))
            k = int(rng.integers(1, 4))
            trt = int(rng.integers(1, 4))
            assert validate_design(generate_standard_swd(s, k, trt)) == []

    @pytest.mark.parametrize("treatment", [C, np.int8(C), 0.0])
    def test_control_treatment_rejected(self, treatment):
        with pytest.raises(DesignError) as info:
            generate_standard_swd(3, 2, treatment=treatment)
        assert str(info.value) == "treatment condition cannot be CONTROL"

    def test_treatment_is_a_cell_code(self):
        assert generate_standard_swd(1, 1, treatment=np.int8(B)).to_codes() == [[C, B]]
        for treatment in (4, -1, 1.5, None):
            with pytest.raises(DesignError, match="unknown condition code"):
                generate_standard_swd(1, 1, treatment=treatment)

    def test_concurrent_stacks_rows_in_order(self):
        a = generate_standard_swd(3, 2, T1)
        b = generate_standard_swd(3, 2, T2)
        stacked = concurrent_design(a, b)
        assert stacked.n_clusters == 12
        assert stacked.to_codes()[:6] == a.to_codes()
        assert stacked.to_codes()[6:] == b.to_codes()
        assert stacked.to_codes() == catalog_design("fig2b").to_codes()

    def test_concurrent_allows_all_control_partner(self):
        a = generate_standard_swd(2, 1, T1)
        extra = all_control(n_clusters=3, n_periods=a.n_periods)
        stacked = concurrent_design(a, extra)
        assert stacked.n_clusters == a.n_clusters + 3

    def test_concurrent_period_mismatch(self):
        a = generate_standard_swd(2, 1, T1)
        b = generate_standard_swd(3, 1, T2)
        with pytest.raises(DesignError, match="period mismatch"):
            concurrent_design(a, b)

    def test_concurrent_overlapping_alphabets(self):
        a = generate_standard_swd(2, 1, T1)
        b = generate_standard_swd(2, 1, T1)
        with pytest.raises(DesignError, match="disjoint"):
            concurrent_design(a, b)
        factorial = DesignGrid([[C, B, B]])
        with pytest.raises(DesignError, match="disjoint"):
            concurrent_design(a, factorial)
        mixed = DesignGrid([[C, B, B], [C, T1, B]])
        with pytest.raises(DesignError) as info:
            concurrent_design(a, mixed)
        assert str(info.value) == ("concurrent stacking needs disjoint single-treatment "
                                   "grids (got ['TRT1'] and ['BOTH', 'TRT1'])")

    def test_concurrent_takes_the_treatment_2_grid_first(self):
        a = generate_standard_swd(3, 2, T2, label="second")
        b = generate_standard_swd(3, 1, T1, label="first")
        stacked = concurrent_design(a, b)
        assert stacked.to_codes() == a.to_codes() + b.to_codes()
        assert stacked.label == "second+first"
        with pytest.raises(DesignError, match="disjoint"):
            concurrent_design(a, generate_standard_swd(3, 1, T2))
        with pytest.raises(DesignError) as info:
            concurrent_design(a, DesignGrid([[C, B, B, B], [C, T2, B, B]]))
        assert str(info.value) == ("concurrent stacking needs disjoint single-treatment "
                                   "grids (got ['TRT2'] and ['BOTH', 'TRT2'])")


class TestCatalog:
    def test_fig1(self):
        grid = catalog_design("fig1")
        assert (grid.n_clusters, grid.n_periods) == (6, 4)
        assert grid.condition_counts()[T1] == 12
        assert not grid.reconstructed

    def test_fig5a_counts(self):
        grid = catalog_design("fig5a")
        counts = grid.condition_counts()
        assert grid.n_clusters == 12
        assert all(row[-1] == B for row in grid.to_codes())
        assert counts[B] == 12
        assert counts[T1] == 6
        assert counts[T2] == 6

    def test_fig5b_counts(self):
        grid = catalog_design("fig5b")
        counts = grid.condition_counts()
        assert grid.n_clusters == 10
        assert counts[B] == 12
        assert counts[T1] == 6
        assert counts[T2] == 6
        early = [row for row in grid.to_codes() if row[2] == B]
        assert len(early) == 2
        assert grid.reconstructed

    @pytest.mark.parametrize("design_id", ["fig8-design1", "fig8-design2",
                                           "fig8-design3", "fig8-design4"])
    def test_fig8_counts(self, design_id):
        grid = catalog_design(design_id)
        counts = grid.condition_counts()
        assert grid.n_clusters == 8
        assert counts[T1] == 7
        assert counts[T2] == 7
        assert counts[B] == 10
        assert grid.reconstructed

    def test_fig8_design3_combined_timing(self):
        grid = catalog_design("fig8-design3")
        last = grid.n_periods - 1
        assert all(row[last] == B for row in grid.to_codes())
        before_last = sum(
            1 for row in grid.to_codes() for j, c in enumerate(row)
            if c == B and j < last
        )
        assert before_last == 2

    def test_fig8_design4_two_clusters_never_combined(self):
        grid = catalog_design("fig8-design4")
        never = [row for row in grid.to_codes() if B not in row]
        assert len(never) == 2

    # the table's layouts keep the relations between the published figures
    @pytest.mark.parametrize("design_id, treatment",
                             [("fig1", T1), ("fig2a-trt1", T1), ("fig2a-trt2", T2)])
    def test_the_wedges_are_the_standard_layout(self, design_id, treatment):
        assert catalog_design(design_id) == \
            generate_standard_swd(3, 2, treatment).relabel(design_id)

    def test_fig2b_stacks_the_two_wedges_of_fig2a(self):
        stacked = concurrent_design(catalog_design("fig2a-trt1"), catalog_design("fig2a-trt2"))
        assert catalog_design("fig2b") == stacked.relabel("fig2b")

    def test_fig5a_is_fig2b_combined_in_the_final_period(self):
        rows = [row[:-1] + [B] for row in catalog_design("fig2b").to_codes()]
        assert catalog_design("fig5a") == DesignGrid(rows, label="fig5a")

    def test_the_reconstructed_layouts(self):
        assert [i for i in catalog_ids() if catalog_design(i).reconstructed] == \
            ["fig2c", "fig5b", "fig8-design1", "fig8-design2", "fig8-design3", "fig8-design4"]

    @pytest.mark.parametrize("rows, message", [
        ("0141 0111", "row 1: unknown condition code 4"),
        ("0111 011", "ragged design: row lengths [3, 4]"),
    ])
    def test_a_bad_table_entry_fails_on_first_use(self, rows, message, monkeypatch):
        monkeypatch.setitem(designs._CATALOG, "typo", (rows, False))
        with pytest.raises(DesignError) as info:
            catalog_design("typo")
        assert str(info.value) == message

    def test_every_catalog_design_validates_cleanly(self):
        for design_id in catalog_ids():
            assert validate_design(catalog_design(design_id)) == []

    def test_unknown_id(self):
        with pytest.raises(UnknownDesignError):
            catalog_design("fig99")

    @pytest.mark.parametrize("design_id", catalog_ids())
    def test_every_call_gives_the_same_read_only_grid(self, design_id):
        grid, again = catalog_design(design_id), catalog_design(design_id)
        assert grid == again
        assert grid.forms is again.forms
        assert not grid.codes.flags.writeable
        with pytest.raises(ValueError):
            grid.codes[0, 0] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            grid.label = "other"

    def test_derived_grids_leave_the_shared_grid_unchanged(self):
        grid = catalog_design("fig5b")
        for additive in (False, True):
            active_effects(grid, additive)  # fills forms
        codes, forms = grid.codes.copy(), copy.deepcopy(grid.forms)
        derived = [grid.relabel("other"), grid.swap_treatments(),
                   grid.permute_clusters(range(grid.n_clusters - 1, -1, -1))]
        for other in derived:
            active_effects(other)
            assert other.forms is not grid.forms
        shared = catalog_design("fig5b")
        assert shared.label == "fig5b" and np.array_equal(shared.codes, codes)
        assert shared.forms == forms


class TestSerialization:
    def test_parse_basic_csv(self):
        grid = parse_design("0,1\n0,0")
        assert grid.to_codes() == [[0, 1], [0, 0]]

    def test_parse_rejects_out_of_alphabet_code(self):
        with pytest.raises(DesignError):
            parse_design("0,4\n0,0")

    def test_parse_rejects_garbage_and_empty(self):
        with pytest.raises(DesignError):
            parse_design("0,x\n0,0")
        with pytest.raises(DesignError):
            parse_design("   \n  ")
        with pytest.raises(DesignError):
            parse_design("0,1\n0,1,1")

    @pytest.mark.parametrize("text, message", [
        ("0,1\n0,x", "line 2: bad cell value 'x'"),
        ("# swedge-design v1 label=a\n\n0,1\n0,1.0", "line 4: bad cell value '1.0'"),
        ("0,1\n0,", "line 2: bad cell value ''"),
        ("0,\u0661\n0,1\n", "line 1: bad cell value '\u0661'"),
        ("0,1_0\n0,1", "line 1: bad cell value '1_0'"),
        ("0,+4\n0,0", "row 1: unknown condition code 4"),
        ("0,1\n0,4", "row 2: unknown condition code 4"),
        ("0,-1\n0,0", "row 1: unknown condition code -1"),
        ("0,99999999999999999999\n0,0", "row 1: unknown condition code 99999999999999999999"),
        ("0,1\n0,1,1", "ragged design: row lengths [2, 3]"),
        ("# swedge-design v1 label=a", "design has no clusters"),
        ("0\n1", "design needs at least 2 periods"),
    ])
    def test_csv_errors_name_the_line_or_the_cell(self, text, message):
        with pytest.raises(DesignError) as info:
            parse_design(text)
        assert str(info.value) == message

    def test_csv_round_trip_with_label(self):
        grid = catalog_design("fig1")
        assert parse_design(serialize_design(grid)) == grid

    def test_json_round_trip(self):
        grid = catalog_design("fig8-design2")
        re_read = parse_design(serialize_design(grid, fmt="json"))
        assert re_read == grid
        assert re_read.reconstructed

    def test_reconstructed_flag_survives_csv(self):
        grid = catalog_design("fig5b")
        again = parse_design(serialize_design(grid))
        assert again.reconstructed
        assert again.label == "fig5b"

    def test_round_trip_on_random_grids(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            grid = random_grid(rng)
            assert parse_design(serialize_design(grid)) == grid
            assert parse_design(serialize_design(grid, fmt="json")) == grid

    @pytest.mark.parametrize("grid", [
        catalog_design("fig1"), catalog_design("fig5b"), DesignGrid([[0, 1], [0, 3]]),
        generate_standard_swd(9, 2)], ids=["label", "reconstructed", "two-periods", "no-header"])
    def test_a_canonical_file_is_read_as_one_buffer(self, grid, monkeypatch):
        # rows each exactly [0-3](,[0-3])* never reach the per-cell reader
        def per_cell(lineno, line):
            raise AssertionError(f"line {lineno} read cell by cell")

        monkeypatch.setattr(designs, "_parse_row", per_cell)
        assert parse_design(serialize_design(grid)) == grid

    def test_header_label_with_spaces(self):
        grid = DesignGrid([[0, 1]], label="my trial, phase 2")
        assert parse_design(serialize_design(grid)).label == "my trial, phase 2"

    @pytest.mark.parametrize("cells, message", [
        ("[[0, 1], [0, true]]", "row 2: unknown condition code True"),
        ("[[false, 1], [0, 1]]", "row 1: unknown condition code False"),
    ])
    def test_json_bool_cells_are_named(self, cells, message):
        with pytest.raises(DesignError) as info:
            parse_design(f'{{"cells": {cells}}}')
        assert str(info.value) == message

    def test_json_alternative_form(self):
        grid = parse_design('{"label": "x", "cells": [[0, 1], [0, 3]]}')
        assert grid.label == "x"
        assert grid.to_codes()[1][1] == B
