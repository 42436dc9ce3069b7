import math
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakutani import (
    ParameterError,
    ResourceLimitError,
    build_rho,
    solve_alpha,
)
from kakutani import cover, engine
from kakutani.cover import (
    LoopRule,
    SubstitutionMatrix,
    build_three_interval_rule,
    char_poly,
    iterate_primitive,
    substitution_matrix,
    verify_cover,
)
from kakutani.polynomials import IntPolynomial
from kakutani.spectral import solomon_verdict

from conftest import (
    ascending_fold,
    bisect_root,
    char_poly_from_rows,
    coprime_pairs,
    expansion_char_poly,
    horner,
    is_primitive,
    loop_label_table,
    matmul,
    matrix_power,
    rule_count,
    rule_patch_per_node,
    rule_tables,
    rule_word,
    tile_counts,
    xi_patch_per_node,
)

# every three-loop rule n >= m >= k >= 1 with n <= 9 that the builder accepts
THREE_LOOP_TRIPLES = [
    (n, m, k)
    for n in range(1, 10)
    for m in range(1, n + 1)
    for k in range(1, m + 1)
    if math.gcd(n, m, k) == 1 and not n == m == k
]


def build_rule(loops):
    return build_rho(*loops) if len(loops) == 2 else build_three_interval_rule(*loops)


def read_tables(rule):
    """The rule's length exponents and label map, read label by label."""
    labels = range(1, rule.size + 1)
    return tuple(map(rule.length_exponent, labels)), tuple(map(rule.image, labels))


class TestSolveInflation:
    """The inflation constant of a rule, from the one bisection in
    ``params`` for any number of loops, and the checks on loop tuples."""

    def test_two_loops_match_alpha(self):
        for n, m in [(2, 1), (3, 2), (5, 3), (7, 4)]:
            xi = build_rho(n, m).xi
            assert xi == pytest.approx(solve_alpha(n, m) ** (-1.0 / n), abs=1e-12)

    def test_silver_ratio(self):
        # 2/x + 1/x^2 = 1 is the silver-ratio equation x^2 - 2x - 1 = 0
        xi = build_three_interval_rule(2, 1, 1).xi
        assert xi == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_tribonacci(self):
        xi = build_three_interval_rule(3, 2, 1).xi
        oracle = bisect_root(lambda x: x**3 - x**2 - x - 1, 1.0, 2.0)
        assert xi == pytest.approx(oracle, abs=1e-12)

    def test_defining_equation(self):
        for counts in [(2, 1), (4, 3), (3, 3, 1), (5, 2, 1)]:
            xi = build_rule(counts).xi
            assert sum(xi**-c for c in counts) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("loops", [(41, 1, 1), (100, 1, 1), (450, 1, 1), (450, 2, 1)])
    def test_long_first_loop(self, loops):
        # alpha = xi**-n is below 1e-12 here, and the bisection needs
        # about n + 53 halvings to reach adjacent floats
        rule = build_three_interval_rule(*loops)
        oracle = bisect_root(lambda x: horner(rule.polynomial, x), 1.0, 4.0)
        assert rule.xi == pytest.approx(oracle, rel=1e-12)
        assert rule.alpha == pytest.approx(rule.xi ** -loops[0], rel=1e-12)

    def test_rejects_single_loop(self):
        # the constructors take a fixed number of loops; the verdict takes
        # two or three, the flowers whose unit-circle roots it reads off
        # the loops
        with pytest.raises(ParameterError, match="two or three loops"):
            solomon_verdict((3,))
        with pytest.raises(ParameterError, match="two or three loops"):
            solomon_verdict((4, 3, 2, 1))

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ParameterError):
            build_rho(2, 0)
        with pytest.raises(ParameterError):
            build_three_interval_rule(2, 1, 0)
        with pytest.raises(ParameterError, match="positive edge counts"):
            solomon_verdict((2, 0))

    @pytest.mark.parametrize("loops", [(10, 8), (6, 4), (10, 2), (4, 2, 2)])
    def test_rejects_loops_with_a_common_factor(self, loops, monkeypatch):
        # a periodic flower is outside the criterion: (10, 8) and (6, 4)
        # have a Perron root twin -xi, and x^10 - x^8 - 1 has the factor
        # Phi_12 that the mod-6 rule of coprime loops misses; refused
        # before any root is sought
        import kakutani.spectral

        def solved(poly):
            raise AssertionError(f"roots sought for {poly!r}")

        monkeypatch.setattr(kakutani.spectral, "_roots_and_residuals", solved)
        with pytest.raises(ParameterError, match=r"loops \(.*\) must be coprime overall"):
            solomon_verdict(loops)

    def test_lattice_loops_are_coprime(self):
        report = solomon_verdict((1, 1))
        assert (report.lambda1, report.ell) == (2.0, 0)


class TestRuleStructure:
    def test_size_and_exponents(self):
        rule = build_rho(3, 2)
        # hub plus (3 - 1) + (2 - 1) chain prototiles
        assert rule.size == 4
        assert read_tables(rule)[0] == (0, 2, 1, 1)

    def test_a_rule_is_its_loops(self):
        # label 1 is the hub; loop i's chain labels follow those of the
        # loops before it, each chain tile passing to the next on its loop
        rule = build_three_interval_rule(7, 4, 1)
        assert rule._fields == ("loops", "alpha", "xi")
        assert rule.size == 1 + 6 + 3 + 0
        assert read_tables(rule) == (
            (0, 6, 5, 4, 3, 2, 1, 3, 2, 1),
            ((2, 8, 1), (3,), (4,), (5,), (6,), (7,), (1,), (9,), (10,), (1,)),
        )

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_closed_form_numbering_matches_the_label_table(self, count):
        # every tuple of two to four loops c_1 >= .. >= c_p with c_1 <= 12,
        # coprime or not
        for loops in combinations_with_replacement(range(12, 0, -1), count):
            table = loop_label_table(loops)
            bases = engine.chain_label_bases(loops)
            assert [(1, *(b + s for s in range(1, c)), 1) for b, c in zip(bases, loops)] == table, loops
            rule = LoopRule(loops, 0.0, 0.0)  # alpha and xi play no part
            assert read_tables(rule) == rule_tables(loops), loops

    def test_hub_children_order(self):
        # the alpha piece (longer loop) comes first
        rule = build_rho(3, 2)
        assert rule.image(1) == (2, 4)

    def test_chain_is_pass_through(self):
        rule = build_rho(4, 3)
        for label in range(2, rule.size + 1):
            assert len(rule.image(label)) == 1

    def test_alpha_and_xi(self):
        rule = build_rho(2, 1)
        assert rule.alpha == pytest.approx(solve_alpha(2, 1), abs=0)
        assert rule.xi == pytest.approx(rule.alpha ** (-0.5), abs=1e-15)

    def test_rejects_lattice_pair(self):
        with pytest.raises(ParameterError):
            build_rho(1, 1)

    def test_rejects_common_factor(self):
        with pytest.raises(ParameterError):
            build_rho(4, 2)


class TestThreeIntervalRule:
    def test_silver_rule_has_hub_self_loop(self):
        # a loop of one edge maps the hub straight back to itself
        rule = build_three_interval_rule(2, 1, 1)
        assert rule.size == 2
        assert rule.image(1) == (2, 1, 1)
        assert rule.polynomial.coeffs == (-1, -2, 1)

    def test_tribonacci_rule(self):
        rule = build_three_interval_rule(3, 2, 1)
        assert rule.size == 4
        assert rule.image(1) == (2, 4, 1)
        assert rule.polynomial.coeffs == (-1, -1, -1, 1)
        assert sum(rule.xi**-c for c in rule.loops) == pytest.approx(1.0, abs=1e-12)

    def test_polynomial_vanishes_at_xi(self):
        for loops in [(2, 1, 1), (3, 2, 1), (4, 2, 1), (5, 1, 1), (5, 4, 2)]:
            rule = build_three_interval_rule(*loops)
            value = sum(c * rule.xi**k for k, c in enumerate(rule.polynomial.coeffs))
            assert abs(value) < 1e-9

    def test_rejects_bad_order(self):
        with pytest.raises(ParameterError):
            build_three_interval_rule(1, 2, 1)

    def test_rejects_common_factor(self):
        with pytest.raises(ParameterError):
            build_three_interval_rule(4, 2, 2)

    def test_rejects_lattice(self):
        with pytest.raises(ParameterError):
            build_three_interval_rule(1, 1, 1)


class TestSubstitutionMatrix:
    def test_golden_matrix(self):
        # hub -> chain tile + hub, chain tile -> hub: the Fibonacci matrix
        matrix = substitution_matrix(build_rho(2, 1))
        assert matrix.entries == ((1, 1), (1, 0))

    def test_column_sums(self):
        # hub image has one child per loop; chains are single children
        for n, m in [(3, 2), (5, 2), (7, 4)]:
            matrix = substitution_matrix(build_rho(n, m))
            sums = [sum(column) for column in zip(*matrix.entries)]
            assert sums[0] == 2
            assert all(s == 1 for s in sums[1:])

    def test_primitive(self):
        for n, m in coprime_pairs(6):
            rule = build_rho(n, m)
            assert rule.is_primitive
            assert is_primitive(substitution_matrix(rule))

    def test_three_interval_primitive(self):
        for loops in [(2, 1, 1), (3, 2, 1), (4, 2, 1), (5, 1, 1)]:
            rule = build_three_interval_rule(*loops)
            assert rule.is_primitive
            assert is_primitive(substitution_matrix(rule))

    def test_primitive_is_a_gcd(self):
        # every two- and three-loop tuple with loops <= 9, coprime or not,
        # against the matrix powers
        tuples = [(n, m) for n in range(1, 10) for m in range(1, n + 1)]
        tuples += [(n, m, k) for n, m in tuples for k in range(1, m + 1)]
        assert len(tuples) == 210
        verdicts = []
        for loops in tuples:
            rule = LoopRule(loops, 0.0, 0.0)  # alpha and xi play no part
            assert rule.is_primitive == is_primitive(substitution_matrix(rule)), loops
            verdicts.append(rule.is_primitive)
        assert verdicts.count(False) == 48

    def test_power_identity(self):
        matrix = substitution_matrix(build_rho(3, 1))
        assert matrix_power(matrix, 0).entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert matrix_power(matrix, 1).entries == matrix.entries

    def test_power_additivity(self):
        matrix = substitution_matrix(build_rho(4, 3))
        lhs = matrix_power(matrix, 5)
        rhs = matmul(matrix_power(matrix, 2), matrix_power(matrix, 3))
        assert lhs.entries == rhs.entries

    def test_rejects_ragged(self):
        with pytest.raises(ParameterError):
            SubstitutionMatrix(((1, 2), (3,)))

    def test_rejects_negative_power(self):
        matrix = substitution_matrix(build_rho(2, 1))
        with pytest.raises(ParameterError):
            matrix_power(matrix, -1)


class TestCharPoly:
    @pytest.mark.parametrize("pair", coprime_pairs(10))
    def test_trinomial_identity(self, pair):
        n, m = pair
        got = char_poly(substitution_matrix(build_rho(n, m)))
        want = IntPolynomial.from_terms({n + m - 1: 1, m - 1: -1, n - 1: -1})
        assert got == want

    @pytest.mark.parametrize("pair", coprime_pairs(7))
    def test_matches_expansion_oracle(self, pair):
        n, m = pair
        matrix = substitution_matrix(build_rho(n, m))
        got = char_poly(matrix)
        assert list(got.coeffs) == expansion_char_poly(matrix.entries)

    @pytest.mark.parametrize("pair", coprime_pairs(15))
    def test_matches_faddeev_leverrier(self, pair):
        matrix = substitution_matrix(build_rho(*pair))
        assert char_poly(matrix) == char_poly_from_rows(matrix.entries)

    @pytest.mark.parametrize("loops", THREE_LOOP_TRIPLES)
    def test_three_loops_match_faddeev_leverrier(self, loops):
        matrix = substitution_matrix(build_three_interval_rule(*loops))
        assert char_poly(matrix) == char_poly_from_rows(matrix.entries)

    @pytest.mark.parametrize(
        "rows",
        [
            # the hub's second vertex has two successors
            ((1, 1), (1, 1)),
            # chain vertex 2 steps to both 3 and the hub
            ((0, 1, 1), (1, 0, 0), (0, 1, 0)),
            # vertex 3 is a self-loop the hub never reaches
            ((1, 1, 0), (1, 0, 0), (0, 0, 1)),
            # vertex 3 is reached from the hub and again from vertex 2
            ((0, 0, 1), (1, 0, 0), (1, 1, 0)),
            # the hub has two edges into the same vertex
            ((0, 1), (2, 0)),
        ],
    )
    def test_rejects_non_flower(self, rows):
        with pytest.raises(ParameterError):
            char_poly(SubstitutionMatrix(rows))

    def test_three_interval_poly_divides_char_poly(self):
        # the rule polynomial is the minimal relation of xi; the full
        # characteristic polynomial picks up extra monomial factors
        for loops in [(3, 2, 1), (4, 2, 1), (5, 1, 1)]:
            rule = build_three_interval_rule(*loops)
            full = char_poly(substitution_matrix(rule))
            quotient, remainder = divmod(full, rule.polynomial)
            assert remainder.is_zero
            assert set(quotient.coeffs[:-1]) <= {0}


class TestIteratePrimitive:
    def test_step_zero_is_hub(self):
        patch = iterate_primitive(build_rho(3, 2), 0)
        assert len(patch) == 1
        assert patch.tiles[0].label == 1
        assert patch.tiles[0].length_value == 1.0

    @pytest.mark.parametrize("n", [10**7, 10**22])
    def test_a_long_loop_costs_its_steps(self, n):
        # labels, powers and counts come from (loop, step): tables sized by
        # the loop took 1.4 GiB at 10**7 and overflowed an index at 10**22
        rule = build_rho(n, 1)
        patch = iterate_primitive(rule, 3)
        assert patch.labels() == (4, 3, 2, 1)
        exponents, terms = xi_patch_per_node(n, 1, 3)
        assert patch.lengths() == tuple(rule.xi**e for e in exponents)
        assert patch.positions() == tuple(ascending_fold(path, lambda p: rule.xi**p) for path in terms)
        assert engine.count_hub_tiles(rule.loops, 3) == [1, 2, 3, 4]

    def test_counts_match_matrix(self):
        for n, m in [(2, 1), (3, 2), (4, 1), (5, 3)]:
            rule = build_rho(n, m)
            matrix = substitution_matrix(rule)
            for ell in range(0, 9):
                patch = iterate_primitive(rule, ell)
                assert len(patch) == sum(tile_counts(matrix, ell))

    @pytest.mark.parametrize(
        "loops, top",
        [(pair, 40) for pair in coprime_pairs(12)]
        + [(triple, 30) for triple in THREE_LOOP_TRIPLES],
    )
    def test_hub_count_matches_the_label_counts(self, loops, top):
        # the tile-cap pre-count of iterate_primitive, from the loops alone:
        # H(k) for every k up to the step count
        rule = build_rule(loops)
        assert engine.count_hub_tiles(rule.loops, top) == [rule_count(rule, ell) for ell in range(top + 1)]

    @pytest.mark.parametrize(
        "loops",
        list(coprime_pairs(12)) + list(THREE_LOOP_TRIPLES),
    )
    def test_hub_count_bound_refuses_only_counts_past_the_cap(self, loops, monkeypatch):
        # xi**(ell - c) <= H(ell): a cap, or a memory budget, of exactly
        # H(ell) tiles is never refused from the bound, and one below it
        # always is, bound or count; a work cap of exactly the leaves the
        # recursion builds, sum(H(k) for k <= ell), is not refused either
        rule = build_rule(loops)
        counts = [rule_count(rule, ell) for ell in range(120)]
        for ell in range(0, 120, 7):
            count = counts[ell]
            monkeypatch.setattr(engine, "DEFAULT_TILE_CAP", sum(counts[: ell + 1]))
            monkeypatch.setattr(engine, "MEMORY_BUDGET", count * engine.TILE_BYTES)
            engine.check_hub_tile_cap(rule.loops, rule.xi, ell, count)
            with pytest.raises(ResourceLimitError, match="above the cap"):
                engine.check_hub_tile_cap(rule.loops, rule.xi, ell, count - 1)
            monkeypatch.setattr(engine, "MEMORY_BUDGET", count * engine.TILE_BYTES - 1)
            with pytest.raises(ResourceLimitError, match="memory budget"):
                engine.check_hub_tile_cap(rule.loops, rule.xi, ell, count)

    def test_cap_is_checked_on_the_hub_count(self):
        rule = build_three_interval_rule(5, 3, 2)
        count = rule_count(rule, 20)
        assert len(iterate_primitive(rule, 20, max_tiles=count)) == count
        with pytest.raises(ResourceLimitError, match=f"contain {count} tiles"):
            iterate_primitive(rule, 20, max_tiles=count - 1)

    def test_label_histogram_matches_matrix(self):
        rule = build_rho(3, 2)
        matrix = substitution_matrix(rule)
        ell = 7
        patch = iterate_primitive(rule, ell)
        counts = [0] * rule.size
        for tile in patch.tiles:
            counts[tile.label - 1] += 1
        assert tuple(counts) == tile_counts(matrix, ell)

    def test_contiguous_and_anchored(self):
        rule = build_rho(3, 1)
        patch = iterate_primitive(rule, 6)
        xi = rule.xi
        assert patch.tiles[0].position_value == 0.0
        edge = 0.0
        for tile in patch.tiles:
            assert tile.position_value == pytest.approx(edge, abs=1e-9)
            edge = tile.position_value + tile.length_value
        assert edge == pytest.approx(xi**6, abs=1e-9)

    @pytest.mark.parametrize(
        "rule",
        [build_rho(n, m) for n, m in [(2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (7, 3)]]
        + [build_three_interval_rule(*loops) for loops in [(2, 1, 1), (3, 2, 1), (2, 2, 1), (5, 4, 2)]],
        ids=lambda rule: str(rule.loops),
    )
    def test_positions_fold_exact_terms(self, rule):
        # bit for bit: the float position is the exact position of the
        # label tree's recursion added up term by term in ascending order
        xi = rule.xi
        for ell in (0, 1, 4, 9, 14, 20):
            if sum(tile_counts(substitution_matrix(rule), ell)) > 5000:
                break
            _labels, terms = rule_patch_per_node(rule, ell)
            assert iterate_primitive(rule, ell).positions() == tuple(
                ascending_fold(path, lambda p: xi**p) for path in terms
            )

    def test_tile_cap(self):
        with pytest.raises(ResourceLimitError):
            iterate_primitive(build_rho(2, 1), 10, max_tiles=20)

    @pytest.mark.parametrize(
        "rule", [build_rho(3, 2), build_three_interval_rule(3, 2, 1)], ids=["3/2", "3,2,1"]
    )
    def test_tile_cap_is_exact(self, rule):
        # refused one tile short of the patch, admitted at its exact size
        ell = 12
        count = sum(tile_counts(substitution_matrix(rule), ell))
        with pytest.raises(ResourceLimitError):
            iterate_primitive(rule, ell, max_tiles=count - 1)
        assert len(iterate_primitive(rule, ell, max_tiles=count)) == count

    def test_rejects_negative_ell(self):
        with pytest.raises(ParameterError):
            iterate_primitive(build_rho(2, 1), -1)


class TestVerifyCover:
    def test_golden_pair_exact(self):
        report = verify_cover(2, 1, 8)
        assert report.ok
        assert bool(report)
        assert report.first_mismatch is None
        assert report.tile_count == len(iterate_primitive(build_rho(2, 1), 8))

    def test_small_grid(self):
        for n, m in coprime_pairs(5):
            for ell in range(0, 8):
                assert verify_cover(n, m, ell).ok, (n, m, ell)

    def test_report_fields(self):
        report = verify_cover(3, 2, 5)
        assert (report.n, report.m, report.ell) == (3, 2, 5)

    def test_respects_tile_cap(self):
        with pytest.raises(ResourceLimitError):
            verify_cover(2, 1, 12, max_tiles=50)

    def test_swapped_hub_children_mismatch(self, monkeypatch):
        # put the short loop first.  For 2/1 after four steps the engine
        # word is W(4) with W(e) = W(e - 2) + W(e - 1), W(0) = [0],
        # W(-1) = [1]: [0, 1, 0, 1, 0, 0, 1, 0].  The swapped rule gives
        # S(k) = S(k - 1) + S(k - 2) (the chain tile passes through),
        # S(0) = [0], S(1) = [0, 1]: [0, 1, 0, 0, 1, 0, 1, 0].  Same
        # length, first difference at index 3.
        original = cover.build_rho

        class Swapped(LoopRule):
            __slots__ = ()

            def image(self, label):
                image = super().image(label)
                return image[::-1] if label == 1 else image

        monkeypatch.setattr(cover, "build_rho", lambda n, m: Swapped(*original(n, m)))
        report = verify_cover(2, 1, 4)
        assert report.ok is False
        assert not report
        assert report.tile_count == 8
        assert report.first_mismatch == 3

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_rule_word_matches_the_label_by_label_oracle(self, count):
        # every tuple of two to four loops c_1 >= .. >= c_p with c_1 <= 12,
        # coprime or not, to 20 steps or 2,000 tiles
        for loops in combinations_with_replacement(range(12, 0, -1), count):
            rule = LoopRule(loops, 0.0, 0.0)  # alpha and xi play no part
            counts = engine.count_hub_tiles(loops, 20)
            for ell in range(21):
                if counts[ell] > 2000:
                    break
                assert cover._rule_word(rule, ell) == rule_word(loops, ell), (loops, ell)

    def test_reads_only_the_labels_within_ell_steps_of_the_hub(self, monkeypatch):
        # a piece of the hub's image is followed at most ell labels, or
        # until it is back at the hub: 1 + sum(min(c - 1, ell)) labels
        reads = []
        original = cover.build_rho

        class Counting(LoopRule):
            __slots__ = ()

            def image(self, label):
                reads.append(("image", label))
                return super().image(label)

            def length_exponent(self, label):
                reads.append(("length_exponent", label))
                return super().length_exponent(label)

        monkeypatch.setattr(cover, "build_rho", lambda n, m: Counting(*original(n, m)))
        for n, m, ell in [(10**22, 1, 3), (10**7, 1, 3), (5 * 10**6, 1, 21), (3, 2, 30), (7, 4, 2), (100, 99, 50)]:
            reads.clear()
            assert verify_cover(n, m, ell).ok
            labels = {label for _, label in reads}
            assert len(labels) <= 1 + min(n - 1, ell) + min(m - 1, ell), (n, m, ell)
            if n == 10**22:
                assert labels == {1, 2, 3, 4}

    def test_count_mismatch_is_minus_one(self, monkeypatch):
        # a rule for 3/1 checked against the 2/1 engine: 6 tiles against 8
        original = cover.build_rho
        monkeypatch.setattr(cover, "build_rho", lambda n, m: original(3, 1))
        report = verify_cover(2, 1, 4)
        assert report.ok is False
        assert report.first_mismatch == -1


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(coprime_pairs(6)), st.integers(min_value=0, max_value=7))
    def test_patch_size_equals_count_vector(self, pair, ell):
        n, m = pair
        rule = build_rho(n, m)
        matrix = substitution_matrix(rule)
        patch = iterate_primitive(rule, ell)
        assert len(patch) == sum(tile_counts(matrix, ell))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(coprime_pairs(6)), st.integers(min_value=0, max_value=10))
    def test_counts_never_shrink(self, pair, ell):
        n, m = pair
        matrix = substitution_matrix(build_rho(n, m))
        assert sum(tile_counts(matrix, ell + 1)) >= sum(tile_counts(matrix, ell))
