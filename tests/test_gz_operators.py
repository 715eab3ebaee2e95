import contextlib
import copy
import math
import warnings

import numpy as np
import pytest

from parwhit.gz import (DifferenceOperator, SupportConstraints, TriangularArray, adjoint,
                        build_Eij, build_EnN, commutator, coxeter_cycle, gen, measure_ratio,
                        random_array, twist)
from parwhit.gz.identity import (BracketCheck, check_brackets, check_build_EnN,
                                 operator_deviation, random_test_function)
from parwhit.gz.whittaker import psi_L, verify_left_whittaker, verify_right_support_relations
from parwhit.errors import ConfigError, DomainError

from oracles import gz_measure, plain_operator_deviation

H = 1.1


def const_one(arr):
    return 1.0 + 0j


def hexes(values):
    """The float hex of each entry of a complex array, or of each array of a dict of them."""
    if isinstance(values, dict):
        return {key: hexes(c) for key, c in values.items()}
    return [(z.real.hex(), z.imag.hex()) for z in np.ravel(values).tolist()]


def check_serre(N: int, hbar: float, n_functions: int, n_arrays: int,
                seed: int) -> list[BracketCheck]:
    """[E_{n,n+1}, E_{k,k+1}] = 0 for |n - k| >= 2 (spot checks)."""
    rng = np.random.default_rng(seed)
    zero = DifferenceOperator(hbar, (), lambda arr, memo, move: {})
    out = []
    for n in range(1, N):
        for k in range(n + 2, N):
            lhs = commutator(gen("raise", n, N, hbar), gen("raise", k, N, hbar))
            dev = operator_deviation(lhs, zero, N, rng, n_functions, n_arrays)
            out.append(BracketCheck(f"[E{n}{n + 1},E{k}{k + 1}]=0", dev))
    return out


class TestGenerators:
    def test_cartan1_multiplies_by_gamma11(self):
        op = gen("cartan", 1, 3, H)
        arr = random_array(3, np.random.default_rng(0))
        assert op.apply(const_one, arr) == pytest.approx(arr.gamma(1, 1) / H)

    def test_raise1_on_constant(self):
        op = gen("raise", 1, 2, H)
        arr = random_array(2, np.random.default_rng(1))
        g11, g21, g22 = arr.gamma(1, 1), arr.gamma(2, 1), arr.gamma(2, 2)
        expect = -(g11 - g21 - H / 2) * (g11 - g22 - H / 2) / H
        assert op.apply(const_one, arr) == pytest.approx(expect)

    def test_lower1_on_constant_empty_products(self):
        op = gen("lower", 1, 2, H)
        arr = random_array(2, np.random.default_rng(2))
        assert op.apply(const_one, arr) == pytest.approx(1.0 / H)

    def test_index_bounds(self):
        with pytest.raises(ConfigError):
            gen("raise", 3, 3, H)
        with pytest.raises(ConfigError):
            gen("cartan", 4, 3, H)
        with pytest.raises(ConfigError):
            gen("lower", 0, 3, H)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    def test_bad_hbar_rejected(self, hbar):
        with pytest.raises(ConfigError, match="finite real > 0"):
            DifferenceOperator(hbar, (), lambda arr, memo, move: {})
        with pytest.raises(ConfigError, match="finite real > 0"):
            gen("raise", 1, 3, hbar)
        with pytest.raises(ConfigError, match="finite real > 0"):
            SupportConstraints(2, 4, hbar)


class TestCommutator:
    def test_gl2_relation(self):
        rng = np.random.default_rng(3)
        lhs = commutator(gen("raise", 1, 2, H), gen("lower", 1, 2, H))
        rhs = gen("cartan", 1, 2, H) - gen("cartan", 2, 2, H)
        for _ in range(20):
            f = random_test_function(2, rng)
            arr = random_array(2, rng)
            a, b = lhs.apply(f, arr), rhs.apply(f, arr)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(4)
        op = gen("raise", 1, 3, H)
        z = commutator(op, op)
        for _ in range(5):
            f = random_test_function(3, rng)
            arr = random_array(3, rng)
            assert abs(z.apply(f, arr)) <= 1e-12

    def test_bracket_and_serre_suites(self):
        for N in (2, 3, 4):
            assert max(c.deviation for c in check_brackets(N, H, 4, 4, seed=10)) <= 1e-10
        assert max(c.deviation for c in check_serre(4, H, 4, 4, seed=11)) <= 1e-10

    @pytest.mark.parametrize("check,seed", [(check_brackets, 0), (check_build_EnN, 1)])
    def test_overflowing_values_are_refused(self, check, seed):
        # at hbar = 1e-300 an operator applied to a test function gives nan + nanj;
        # a NaN deviation must not read as a pass
        with pytest.raises(DomainError, match="hbar = 1e-300"):
            check(4, 1e-300, 5, 5, seed)

    def test_deviation_needs_one_hbar(self):
        # the two operators share their test-function values by shift key
        with pytest.raises(ConfigError, match="different hbar"):
            operator_deviation(gen("cartan", 1, 3, H), gen("cartan", 1, 3, 2 * H), 3,
                               np.random.default_rng(0), 1, 1)


class TestBuildEnN:
    def test_reduces_to_raise_at_top(self):
        rng = np.random.default_rng(5)
        for N in (2, 3, 4):
            a = build_EnN(N - 1, N, H)
            b = gen("raise", N - 1, N, H)
            for _ in range(5):
                f = random_test_function(N, rng)
                arr = random_array(N, rng)
                va, vb = a.apply(f, arr), b.apply(f, arr)
                assert abs(va - vb) <= 1e-10 * max(1.0, abs(vb))

    def test_matches_nested_commutators_to_N6(self):
        for N in (3, 4, 5, 6):
            assert max(c.deviation for c in check_build_EnN(N, H, 3, 3, seed=20)) <= 1e-9

    def test_nested_commutator_has_one_entry_per_distinct_shift(self):
        # [[E12, E23], ..., E_{N-1,N}] is built from 2^(N-2) (N-1)! products,
        # which land on the (N-1)! shifts of the closed form
        for N in (3, 4, 5, 6):
            nested = gen("raise", 1, N, H)
            for k in range(2, N):
                nested = commutator(nested, gen("raise", k, N, H))
            assert len(nested) == len(build_EnN(1, N, H)) == math.factorial(N - 1)


class TestTwist:
    def test_identity_twist(self):
        rng = np.random.default_rng(6)
        w = (1, 2, 3)
        a = twist((1, 2), w, 3, H)
        b = gen("raise", 1, 3, H)
        for _ in range(5):
            f = random_test_function(3, rng)
            arr = random_array(3, rng)
            assert a.apply(f, arr) == pytest.approx(b.apply(f, arr))

    def test_coxeter_instances(self):
        # the cycle 1->2->...->m->1 maps these four labels as documented
        rng = np.random.default_rng(7)
        m, N = 3, 4
        w = coxeter_cycle(m, N)
        pairs = [((2, 1), (1, 3)), ((m + 1, m), (4, 2)), ((1, N), (3, 4)), ((m, N), (2, 4))]
        for label, direct in pairs:
            a = twist(label, w, N, H)
            b = build_Eij(direct[0], direct[1], N, H)
            for _ in range(3):
                f = random_test_function(N, rng)
                arr = random_array(N, rng)
                va, vb = a.apply(f, arr), b.apply(f, arr)
                assert abs(va - vb) <= 1e-10 * max(1.0, abs(va), abs(vb))

    def test_bad_permutation(self):
        with pytest.raises(ConfigError):
            twist((1, 2), (1, 1, 3), 3, H)

    def test_coxeter_cycle_range(self):
        assert coxeter_cycle(1, 3) == (1, 2, 3)
        assert coxeter_cycle(3, 3) == (2, 3, 1)
        assert coxeter_cycle(2, 4) == (2, 1, 3, 4)
        for m, N in ((0, 3), (5, 3), (-1, 2)):
            with pytest.raises(ConfigError):
                coxeter_cycle(m, N)


class TestTriangularArray:
    def test_shifted_equals_constructed(self):
        arr = random_array(4, np.random.default_rng(12))
        before = arr.rows
        shift = {(1, 1): 1, (3, 2): -2, (4, 4): 1}
        got = arr.shifted(shift, H)
        rows = [list(r) for r in arr.rows]
        for (n, i), k in shift.items():
            rows[n - 1][i - 1] += k * H
        assert hexes(got.data) == hexes(TriangularArray(tuple(tuple(r) for r in rows)).data)
        assert hexes(arr.shifted(tuple(sorted(shift.items())), H).data) == hexes(got.data)
        assert arr.rows == before
        with pytest.raises(ValueError):
            got.data[0, 0] = 0

    def test_batch_holds_its_arrays(self):
        rng = np.random.default_rng(14)
        singles = [random_array(4, rng) for _ in range(3)]
        batch = TriangularArray.stack(singles)
        built = TriangularArray([[np.array([a.gamma(n, i)[0] for a in singles])
                                  for i in range(1, n + 1)] for n in range(1, 5)])
        assert len(batch) == 3 and batch.data.shape == (10, 3)
        assert hexes(built.data) == hexes(batch.data)
        shift = {(2, 1): -1, (4, 3): 2}
        for s, single in enumerate(singles):
            assert batch[s].rows == single.rows
            assert batch[s].shifted(shift, H).rows == single.shifted(shift, H).rows
            assert batch.shifted(shift, H)[s].rows == single.shifted(shift, H).rows
        assert hexes(batch[np.array([False, True, True])].data) == hexes(batch.data[:, 1:])
        with pytest.raises(ConfigError, match="batch of one"):
            batch.rows

    @pytest.mark.parametrize("N,seed", [(3, 0), (4, 204), (6, 43), (6, 801)])
    def test_batch_draw_equals_single_draws(self, N, seed):
        # a batch of arrays takes the same values and leaves the generator in the same
        # state as drawing them one at a time, redraws included
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        batch = random_array(N, rng, 40)
        singles = [random_array(N, clone) for _ in range(40)]
        assert [batch[s].rows for s in range(40)] == [a.rows for a in singles]
        assert rng.bit_generator.state == clone.bit_generator.state

    @pytest.mark.parametrize("N,seed", [(2, 0), (3, 5), (5, 17), (6, 801)])
    def test_random_test_function_keeps_its_draws(self, N, seed):
        # the per-scalar construction the bulk uniform call replaced
        def reference(rng):
            a = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
                 for n in range(1, N + 1) for _ in range(n)]
            positions = [(n, i) for n in range(1, N + 1) for i in range(1, n + 1)]
            k = int(rng.integers(0, 4))
            chosen = [int(t) for t in rng.choice(len(positions), size=min(k, len(positions)),
                                                 replace=False)]
            offsets = [complex(rng.uniform(-1, 1), float(rng.choice([-1, 1])) * rng.uniform(4.0, 7.0))
                       for _ in chosen]
            return a, chosen, offsets

        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        for _ in range(30):
            a, chosen, offsets = reference(clone)
            f = random_test_function(N, rng)
            assert hexes(f.a) == hexes(a)
            used = f.used[:, 0]
            assert f.pos[used, 0].tolist() == chosen
            assert hexes(f.b[used, 0]) == hexes(offsets)
        assert rng.bit_generator.state == clone.bit_generator.state

    # seed 204 redraws at N = 4 and N = 6, seeds 43 and 179 at N = 6
    @pytest.mark.parametrize("N,seed", [(3, 0), (4, 204), (5, 7), (6, 43), (6, 179), (6, 801)])
    def test_random_array_keeps_its_draws(self, N, seed):
        # the construction the per-row map(complex, ...) replaced
        def reference(rng):
            for attempt in range(1, 201):
                rows = []
                for n in range(1, N + 1):
                    r = [complex(v) for v in
                         rng.uniform(-2.0, 2.0, size=n) + 1j * rng.uniform(-2.0, 2.0, size=n)]
                    if any(abs(r[a] - r[b]) < 0.05 for a in range(n) for b in range(a + 1, n)):
                        break
                    rows.append(tuple(r))
                else:
                    return rows, attempt

        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        expect, attempts = reference(clone)
        got = random_array(N, rng)
        assert [[(g.real.hex(), g.imag.hex()) for g in r] for r in got.rows] == \
            [[(g.real.hex(), g.imag.hex()) for g in r] for r in expect]
        assert rng.bit_generator.state == clone.bit_generator.state
        assert (attempts > 1) == (seed in (43, 179, 204))


class TestAdjoint:
    def test_multiplication_operator_fixed(self):
        rng = np.random.default_rng(8)
        op = gen("cartan", 2, 3, H)
        adj = adjoint(op)
        for _ in range(5):
            f = random_test_function(3, rng)
            arr = random_array(3, rng)
            assert adj.apply(f, arr) == pytest.approx(op.apply(f, arr))

    def test_involution(self):
        rng = np.random.default_rng(9)
        for op in (gen("raise", 2, 4, H), gen("lower", 2, 4, H),
                   commutator(gen("raise", 1, 4, H), gen("raise", 2, 4, H))):
            twice = adjoint(adjoint(op))
            for _ in range(5):
                f = random_test_function(4, rng)
                arr = random_array(4, rng)
                a, b = op.apply(f, arr), twice.apply(f, arr)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_structural_adjoint_matches_per_shift_definition(self):
        # a bare DifferenceOperator carries no structure, so its adjoint reads
        # the whole symbol at gamma - hbar*sigma for every shift sigma
        rng = np.random.default_rng(13)
        N = 5
        w = coxeter_cycle(3, N)
        for k in range(1, N):
            op = twist((k + 1, k), w, N, H)
            bare = DifferenceOperator(H, op.shifts, op.symbol)
            fast, slow = adjoint(op), adjoint(bare)
            assert set(fast.shifts) == set(slow.shifts)
            for _ in range(3):
                f = random_test_function(N, rng)
                arr = random_array(N, rng)
                a, b = fast.apply(f, arr), slow.apply(f, arr)
                assert abs(a - b) <= 1e-11 * max(1.0, abs(b))

    def test_measure_ratio_matches_direct_quotient(self):
        rng = np.random.default_rng(10)
        shifts = [{(2, 1): 1}, {(3, 2): -1}, {(2, 2): 1, (3, 1): -1}]
        for shift in shifts:
            for _ in range(10):
                arr = random_array(4, rng)
                direct = gz_measure(arr.shifted(shift, H), H) / gz_measure(arr, H)
                closed = measure_ratio(arr, shift, H)
                assert abs(closed / direct - 1.0) <= 1e-10

    def test_measure_zero_structure(self):
        # mu vanishes exactly when a middle row has entries separated by -k*hbar
        base = random_array(4, np.random.default_rng(11))
        rows = [list(r) for r in base.rows]
        rows[2][1] = rows[2][0] - 2 * H  # gamma_{3,2} = gamma_{3,1} - 2 hbar
        singular = TriangularArray(tuple(tuple(r) for r in rows))
        assert gz_measure(singular, H) == 0j
        assert gz_measure(base, H) != 0j


class TestChecksRefuseEmptySamples:
    @pytest.mark.parametrize("check,args", [(check_brackets, (3, H, 0, 4, 1)),
                                            (check_build_EnN, (4, H, 3, 0, 1)),
                                            (check_brackets, (3, H, -1, 4, 1))])
    def test_zero_functions_or_arrays_raise(self, check, args):
        # with no test function or no array, every deviation would read 0.0 and pass
        with pytest.raises(ConfigError, match="n_functions >= 1 and n_arrays >= 1"):
            check(*args)

    @pytest.mark.parametrize("check", [check_brackets, check_build_EnN])
    @pytest.mark.parametrize("N", [1, 0])
    def test_fewer_than_two_rows_raise(self, check, N):
        # with no n in 1..N-1 the list of checks would be empty and pass
        with pytest.raises(ConfigError, match="needs N >= 2"):
            check(N, H, 4, 4, 0)


def _operators_with_rows(N):
    """(name, operator) for every generator of gl_N, E_{n,N}, one nested commutator,
    one twist, and the adjoint of each."""
    ops = [(f"cartan{n}", gen("cartan", n, N, H)) for n in range(1, N + 1)]
    ops += [(f"{kind}{n}", gen(kind, n, N, H)) for kind in ("raise", "lower") for n in range(1, N)]
    ops += [(f"E{n}{N}", build_EnN(n, N, H)) for n in range(1, N)]
    ops += [("E13-nested", build_Eij(1, 3, N, H)),
            ("twist", twist((3, 2), coxeter_cycle(3, N), N, H))]
    return ops + [(f"adjoint({name})", adjoint(op)) for name, op in ops]


class TestMemo:
    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_symbol_depends_only_on_declared_rows(self, N):
        # a range that is too narrow would let the memo serve a stale symbol
        rng = np.random.default_rng(30 + N)
        arr = random_array(N, rng)
        for name, op in _operators_with_rows(N):
            first, last = op.rows
            outside = [r for r in range(1, N + 1) if r < first or (last is not None and r > last)]
            base = hexes(op.symbol(arr, {}, ()))
            for r in outside:
                rows = list(arr.rows)
                rows[r - 1] = random_array(N, rng).rows[r - 1]
                moved = op.symbol(TriangularArray(tuple(rows)), {}, ())
                assert hexes(moved) == base, (name, op.rows, r)

    def test_declared_rows(self):
        assert gen("raise", 2, 5, H).rows == (2, 3)
        assert gen("lower", 2, 5, H).rows == (1, 2)
        assert gen("lower", 1, 5, H).rows == (1, 1)
        assert gen("cartan", 3, 5, H).rows == (2, 3)
        assert build_EnN(2, 5, H).rows == (2, 5)
        assert build_Eij(1, 3, 5, H).rows == (1, 3)
        assert DifferenceOperator(H, (), lambda arr, memo, move: {}).rows == (1, None)

    def test_memo_does_not_leak_between_calls(self):
        rng = np.random.default_rng(31)
        N = 5
        f = random_test_function(N, rng)
        arr1, arr2 = random_array(N, rng, 4), random_array(N, rng, 4)
        op = build_Eij(1, 5, N, H)
        first, second, again = op.apply(f, arr1), op.apply(f, arr2), op.apply(f, arr1)
        assert hexes(first) == hexes(again)
        assert hexes(second) == hexes(build_Eij(1, 5, N, H).apply(f, arr2))

    def test_each_generator_symbol_is_evaluated_once_per_distinct_input(self, monkeypatch):
        # one check_build_EnN(6, ...) call of a gz-verify round evaluates each n on one
        # batch of 3 x 3 arrays: without the memo its generator symbols are evaluated
        # 1,113 times on 55 distinct (generator, move) inputs, each on the whole batch
        import parwhit.gz.identity as identity
        calls, inputs = [], set()

        def counted_gen(kind, n, N, hbar):
            op = gen(kind, n, N, hbar)
            symbol = op.symbol

            def counting(arr, memo, move):
                assert len(arr) == 9
                calls.append(1)
                inputs.add((id(op), move))
                return symbol(arr, memo, move)

            op.symbol = counting
            return op

        monkeypatch.setattr(identity, "gen", counted_gen)
        check_build_EnN(6, H, 3, 3, seed=202101160)
        assert len(calls) == len(inputs) == 55

    @staticmethod
    def _moves(op, N, rng):
        """Three moves of op's rows, as shift keys: one entry, one per row, and two
        entries of one row."""
        first, last = op.rows
        rows = range(first, (last or N) + 1)
        one = {(first, 1): -1}
        each = {(n, int(rng.integers(1, n + 1))): int(rng.choice([-2, -1, 1])) for n in rows}
        wide = max(rows)
        two = {(wide, 1): 1, (wide, wide): -1} if wide > 1 else one
        return [tuple(sorted(move.items())) for move in (one, each, two)]

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_moved_lookup_equals_lookup_at_shifted_array(self, N):
        rng = np.random.default_rng(40 + N)
        arr = random_array(N, rng, 3)
        for name, op in _operators_with_rows(N):
            outside = [r for r in range(1, N + 1)
                       if r < op.rows[0] or (op.rows[1] is not None and r > op.rows[1])]
            for move in self._moves(op, N, rng):
                expect = hexes(op.coeffs(arr.shifted(move, H), {}))
                assert hexes(op.coeffs(arr, {}, move)) == expect, (name, move)
                # a move that differs only outside the operator's rows is the same input
                memo = {}
                filled = op.coeffs(arr, memo, move)
                wider = tuple(sorted(move + tuple(((r, 1), 1) for r in outside)))
                assert op.coeffs(arr, memo, wider) is filled, (name, move)

    def test_repeated_lookup_builds_no_array(self, monkeypatch):
        N = 5
        arr = random_array(N, np.random.default_rng(45), 4)
        op = build_Eij(1, 4, N, H)
        move = (((2, 1), -1), ((3, 2), 1))
        memo = {}
        first = op.coeffs(arr, memo, move)
        built = []
        shifted = TriangularArray.shifted
        monkeypatch.setattr(TriangularArray, "shifted",
                            lambda self, *args: built.append(1) or shifted(self, *args))
        assert op.coeffs(arr, memo, move) is first
        assert op.coeffs(arr, memo, move + (((5, 2), 3),)) is first
        assert built == []

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_each_point_is_evaluated_once(self, monkeypatch, N):
        # f runs once on the whole batch per distinct shift key whose coefficient is
        # nonzero on some array in A or B
        import parwhit.gz.identity as identity
        points, batches = [], []
        call, draw = identity._TestFn.__call__, identity.random_array

        def counted_call(self, arr):
            points.append(arr)
            return call(self, arr)

        def recorded_array(N, rng, size=1):
            arr = draw(N, rng, size)
            batches.append(arr)
            return arr

        monkeypatch.setattr(identity._TestFn, "__call__", counted_call)
        monkeypatch.setattr(identity, "random_array", recorded_array)
        pairs = [(commutator(gen("raise", 1, N, H), gen("lower", 1, N, H)),
                  gen("cartan", 1, N, H) - gen("cartan", 2, N, H)),
                 (build_EnN(1, N, H), build_Eij(1, N, N, H))]
        for A, B in pairs:
            points.clear()
            batches.clear()
            operator_deviation(A, B, N, np.random.default_rng(N), 2, 3)
            assert [len(b) for b in batches] == [3, 3]
            arr = TriangularArray.stack(batches)
            keys = {key for op in (A, B) for key, c in op.symbol(arr, {}, ()).items()
                    if (c != 0).any()}
            assert len(points) == len(keys)
            assert sorted(hexes(p.data) for p in points) == \
                sorted(hexes(arr.shifted(key, H).data) for key in keys)


class TestBatch:
    """A batch of S arrays gives, in float hex, what S batches of one give."""

    @pytest.mark.parametrize("N", [3, 4, 5, 6])
    def test_apply_on_a_batch_equals_applies_on_each_array(self, N):
        rng = np.random.default_rng(70 + N)
        f = random_test_function(N, rng)
        arr = random_array(N, rng, 9)
        for name, op in _operators_with_rows(N):
            got = op.apply(f, arr)
            assert hexes(got) == [h for s in range(9) for h in hexes(op.apply(f, arr[s]))], name

    @pytest.mark.parametrize("m,N", [(2, 3), (2, 4), (3, 5), (4, 6)])
    def test_psi_L_on_a_batch_equals_psi_L_on_each_array(self, m, N):
        rng = np.random.default_rng(80 + N)
        arr = random_array(N, rng, 9)
        psi = lambda a: psi_L(m, a, H)   # noqa: E731
        assert hexes(psi(arr)) == [h for s in range(9) for h in hexes(psi(arr[s]))]
        for k in range(1, N):
            op = adjoint(twist((k + 1, k), coxeter_cycle(m, N), N, H))
            assert hexes(op.apply(psi, arr)) == \
                [h for s in range(9) for h in hexes(op.apply(psi, arr[s]))], k


@pytest.mark.parametrize("suite,args,refused", [
    (check_brackets, (5, H, 3, 3, 2), False),
    (check_build_EnN, (5, H, 3, 3, 3), False),
    (verify_left_whittaker, (3, 5), False),
    (verify_right_support_relations, (3, 5), False),
    (check_brackets, (4, 1e-300, 5, 5, 0), True),      # values leave the double range
    (check_build_EnN, (4, 1e-300, 5, 5, 1), True),
])
def test_gz_suites_raise_no_runtime_warning(suite, args, refused):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError) if refused else contextlib.nullcontext():
            suite(*args)


class TestPlainOracle:
    """The memoized deviations equal a memo-free evaluation, in float hex."""

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_brackets(self, N):
        got = check_brackets(N, H, 2, 2, seed=500 + N)
        rng = np.random.default_rng(500 + N)
        for n, check in enumerate(got, start=1):
            lhs = commutator(gen("raise", n, N, H), gen("lower", n, N, H))
            rhs = gen("cartan", n, N, H) - gen("cartan", n + 1, N, H)
            assert check.deviation.hex() == plain_operator_deviation(lhs, rhs, N, rng, 2, 2).hex()

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_build_EnN(self, N):
        got = check_build_EnN(N, H, 2, 2, seed=600 + N)
        rng = np.random.default_rng(600 + N)
        for n, check in enumerate(got, start=1):
            nested = gen("raise", n, N, H)
            for k in range(n + 1, N):
                nested = commutator(nested, gen("raise", k, N, H))
            dev = plain_operator_deviation(build_EnN(n, N, H), nested, N, rng, 2, 2)
            assert check.deviation.hex() == dev.hex()
