import numpy as np
import pytest

from resetcert.errors import (ConfigError, DomainError, EmptyTable, GridTooSparse,
                              NonMonotoneFrequency, OutOfBand, ParseError)
from resetcert.frf import FrfTable, Loop, compose_loop, interpolate, load_frf, save_frf
from resetcert.gsore import gsore_problem
from resetcert.lti import assemble_closed_loop, evaluate, series, tf
from resetcert.elements import base_tf, clegg, gfore, gsore, pci, realization, sosre
from resetcert.nsv import certify_first_order, nsv_grid_samples

TWO_PI = 2.0 * np.pi


class TestLoad:
    def test_complex_format(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("# comment\n1.0,1.0,0.0\n2.0,0.5,0.0\n")
        t = load_frf(p, "complex")
        np.testing.assert_allclose(t.freqs, [TWO_PI, 2 * TWO_PI])
        np.testing.assert_allclose(t.values, [1.0, 0.5])

    def test_magphase_zero_db(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,0.0,0.0\n2.0,0.0,0.0\n")
        t = load_frf(p, "magphase")
        np.testing.assert_allclose(t.values, [1.0 + 0.0j, 1.0 + 0.0j])

    def test_magphase_minus_half_j(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1.0,-6.0206,-90.0\n2.0,0.0,0.0\n")
        t = load_frf(p, "magphase")
        assert t.values[0] == pytest.approx(-0.5j, abs=2e-5)

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1.0,1.0\n")
        with pytest.raises(ParseError):
            load_frf(p)

    def test_non_monotone(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("2.0,1,0\n1.0,1,0\n")
        with pytest.raises(NonMonotoneFrequency):
            load_frf(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("# only a comment\n1.0,1,0\n")
        with pytest.raises(EmptyTable):
            load_frf(p)


    @pytest.mark.parametrize("row", ["2.0,nan,0", "2.0,1,inf", "inf,1,0", "nan,1,0",
                                     "2.0,-inf,0"])
    def test_non_finite_row_names_its_line(self, tmp_path, row):
        p = tmp_path / "bad.csv"
        p.write_text(f"# header\n1.0,1,0\n{row}\n3.0,1,0\n")
        with pytest.raises(ParseError, match=r"bad.csv:3: non-finite number"):
            load_frf(p)


class TestNonFiniteTable:
    @pytest.mark.parametrize("freqs, values, sample", [
        ([0.01, np.nan, 1.0], [1, 1, 1], 1),
        ([0.01, 0.1, np.inf], [1, 1, 1], 2),
        ([0.01, 0.1, 1.0], [1, np.nan, 1], 1),
        ([0.01, 0.1, 1.0], [complex(1, np.inf), 1, 1], 0),
    ], ids=["nan-frequency", "inf-frequency", "nan-value", "inf-value"])
    def test_refused_naming_the_sample(self, freqs, values, sample):
        # an infinite top frequency used to give the band (0.01, inf), and a
        # NaN value failed in the winding count with a ValueError
        with pytest.raises(DomainError, match=f"FRF sample {sample} needs a finite"):
            FrfTable(np.array(freqs), np.array(values, complex))


class TestRoundTrip:
    def test_complex_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        hz = np.sort(10.0 ** rng.uniform(0, 3, 40))
        vals = rng.normal(size=40) + 1j * rng.normal(size=40)
        first = tmp_path / "first.csv"
        lines = [f"{h:.17g},{v.real:.17g},{v.imag:.17g}" for h, v in zip(hz, vals)]
        first.write_text("\n".join(lines) + "\n")
        t1 = load_frf(first, "complex")
        second = tmp_path / "second.csv"
        save_frf(t1, second, "complex")
        t2 = load_frf(second, "complex")
        assert np.array_equal(t1.freqs, t2.freqs)
        assert np.array_equal(t1.values, t2.values)


class TestInterpolate:
    def test_exact_at_nodes(self):
        t = FrfTable([1.0, 10.0, 100.0], [1 + 1j, 2 - 1j, 0.5 + 0.2j])
        for w, v in zip(t.freqs, t.values):
            assert interpolate(t, w) == pytest.approx(v, rel=1e-12)

    def test_loglog_midpoint(self):
        t = FrfTable([1.0, 100.0], [1.0 + 0.0j, 0.01 + 0.0j])
        assert interpolate(t, 10.0) == pytest.approx(0.1 + 0.0j, rel=1e-12)

    def test_phase_unwrap_through_pi(self):
        # a -179 deg -> +179 deg pair must interpolate through 180, not 0
        v1 = np.exp(1j * np.radians(-179.0))
        v2 = np.exp(1j * np.radians(179.0))
        t = FrfTable([1.0, 4.0], [v1, v2])
        mid = interpolate(t, 2.0)
        assert abs(np.degrees(np.angle(mid))) > 170.0

    def test_out_of_band(self):
        t = FrfTable([1.0, 10.0], [1.0, 0.1])
        with pytest.raises(OutOfBand):
            interpolate(t, 0.5)
        with pytest.raises(OutOfBand):
            interpolate(t, 20.0)

    def test_monotone_between_nodes(self):
        t = FrfTable([1.0, 10.0, 100.0], [1.0, 0.1, 0.01])
        q = np.logspace(0.05, 1.9, 50)
        mags = np.abs(interpolate(t, q))
        assert np.all(np.diff(mags) < 0)


class TestComposeLoop:
    def test_unit_plant_equals_element(self):
        freqs = np.logspace(-2, 2, 200)
        plant = FrfTable(freqs, np.ones_like(freqs, dtype=complex))
        c_r = base_tf(gfore(1.0))
        one = tf([1.0])
        s = compose_loop(plant, one, c_r, one, one, np.array([1.0]))
        assert s.loop[0] == pytest.approx(0.5 - 0.5j, abs=1e-12)

    def test_rational_passthrough(self):
        g = tf([1.0], [1.0, 2.0, 1.0])
        one = tf([1.0])
        grid = np.logspace(-1, 1, 30)
        s = compose_loop(g, one, one, one, one, grid)
        np.testing.assert_allclose(s.loop, evaluate(g, grid), rtol=1e-12)

    def test_measured_plant_product_oracle(self):
        rng = np.random.default_rng(11)
        freqs = np.logspace(-1, 2, 500)
        vals = (rng.normal(size=500) + 1j * rng.normal(size=500)) * 0.5 + 1.0
        plant = FrfTable(freqs, vals)
        pid = tf([1.0, 2.0], [0.0, 1.0])
        one = tf([1.0])
        c_r = base_tf(gfore(2.0))
        idx = rng.integers(0, 500, 10)
        s = compose_loop(plant, pid, c_r, one, one, freqs[idx])
        expect = (evaluate(pid, freqs[idx]) * evaluate(c_r, freqs[idx]) * vals[idx])
        np.testing.assert_allclose(s.loop, expect, rtol=1e-10)

    def test_grid_outside_band(self):
        plant = FrfTable([1.0, 10.0], [1.0, 0.1])
        one = tf([1.0])
        with pytest.raises(OutOfBand):
            compose_loop(plant, one, one, one, one, np.array([100.0]))


class TestLoop:
    ONE = tf([1.0])
    LEAD = tf([1.0, 1.0], [1.0, 0.1])

    def test_variant_selection(self):
        one = self.ONE
        assert Loop(sosre(1.0, 1.0, 0.0), one, one, one).variant == "sosre"
        assert Loop(gfore(1.0), one, one, one, architecture="modified").variant == "modified"
        assert Loop(pci(1.0, 0.3), one, one, one).variant == "standard"
        assert Loop(clegg(), one, one, one, architecture="standard").variant == "standard"

    def test_sosre_modified_refused(self):
        # the SOSRE NSV keeps Cs out of L, the modified loop puts it in: no
        # verdict may read both, so the variant of that loop is refused
        loop = Loop(sosre(1.0, 1.0, 0.0), self.ONE, self.ONE, self.ONE, architecture="modified")
        with pytest.raises(ConfigError):
            loop.variant

    def test_unknown_architecture_refused(self):
        # None is no alias of the standard architecture
        for arch in ("foo", None):
            with pytest.raises(ConfigError, match="use standard or modified"):
                Loop(gfore(1.0), self.ONE, self.ONE, self.ONE, architecture=arch)

    def test_double_integrator_origin_poles(self):
        g = tf([1.0], [0.0, 0.0, 1.0, 1.0])
        loop = Loop(gfore(1.0), self.ONE, self.ONE, g)
        assert loop.origin_poles == 2
        assert loop.n_minus_m == 4
        # a zero at the origin in the controller cancels one of them
        assert Loop(gfore(1.0), tf([0.0, 1.0], [1.0, 1.0]), self.ONE, g).origin_poles == 1

    def test_modified_puts_shaping_in_the_loop(self):
        g = tf([2.0], [1.0, 1.0])
        std = Loop(gfore(1.0), self.ONE, self.ONE, g, c_s=self.LEAD)
        mod = Loop(gfore(1.0), self.ONE, self.ONE, g, c_s=self.LEAD, architecture="modified")
        expect = series(std.loop_tf, self.LEAD)
        assert np.array_equal(mod.loop_tf.num, expect.num)
        assert np.array_equal(mod.loop_tf.den, expect.den)
        assert mod.k_n == std.k_n == pytest.approx(20.0)
        assert mod.n_minus_m == std.n_minus_m == 2
        grid = np.logspace(-1, 1, 5)
        np.testing.assert_allclose(mod.samples(grid).loop,
                                   std.samples(grid).loop * evaluate(self.LEAD, grid))

    def test_measured_plant_constants(self):
        band = np.logspace(-2, 2, 100)
        table = FrfTable(band, evaluate(tf([1.0], [1.0, 1.0]), band))
        loop = Loop(gfore(1.0), self.ONE, self.ONE, table, c_s=tf([2.0, 1.0], [4.0, 1.0]))
        assert not loop.rational
        for name in ("p_lin", "loop_tf", "k_n", "n_minus_m", "origin_poles"):
            assert getattr(loop, name) is None, name
        assert loop.k_s0 == 0.5

    def test_samples_and_closed_loop_match_the_blocks(self):
        g = tf([1.0], [0.0, 1.0, 1.0])
        elem = gfore(2.0, 0.4)
        loop = Loop(elem, self.LEAD, self.ONE, g, c_s=self.LEAD)
        grid = np.logspace(-1, 1, 7)
        ref = compose_loop(g, self.LEAD, base_tf(elem), self.ONE, self.LEAD, grid)
        assert np.array_equal(loop.samples(grid).loop, ref.loop)
        cl = loop.closed_loop([[0.0]])
        want = assemble_closed_loop(realization(elem), [[0.0]], self.LEAD, self.ONE, g,
                                    self.LEAD)
        assert np.array_equal(cl.a_bar, want.a_bar)
        assert np.array_equal(loop.closed_loop().a_rho_bar[:1, :1], [[0.4]])


class TestLoopGrid:
    """``Loop.grid`` is the one band rule: both certifiers start from it."""

    ONE = tf([1.0])

    def test_rational_grid_pads_the_features(self):
        # features: the plant poles 0.1 and 30, the GFORE corner and C_R pole 2
        g = tf([1.0], np.convolve([1.0, 10.0], [1.0, 1.0 / 30.0]))
        grid = Loop(gfore(2.0), self.ONE, self.ONE, g).grid(100)
        assert grid.size == 100 and np.all(np.diff(np.log10(grid)) > 0.0)
        assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(3e3)
        # the CI corner is 1; the origin poles of C_R and G carry no magnitude
        grid = Loop(clegg(), self.ONE, self.ONE, tf([1.0], [0.0, 1.0, 0.2])).grid(50)
        assert grid[0] == pytest.approx(1e-2) and grid[-1] == pytest.approx(5e2)

    def test_table_grid_spans_the_band(self):
        band = np.logspace(-1.5, 2.5, 300)
        table = FrfTable(band, evaluate(tf([1.0], [1.0, 1.0]), band))
        grid = Loop(gfore(1e3), self.ONE, self.ONE, table).grid(80)
        assert grid.size == 80
        assert grid[0] == pytest.approx(band[0], rel=1e-12)
        assert grid[-1] == pytest.approx(band[-1], rel=1e-12)

    def test_certifiers_start_from_the_loop_grid(self):
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        for g, origin in ((tf([0.8], [1.0, 1.0]), False),                # Type V
                          (tf([1.0], np.convolve([1.0, 1.0], [1.0, 0.5])), False),
                          (tf([1.0], [0.0, 1.0, 1.0]), True)):           # Type III
            loop = Loop(elem, self.ONE, self.ONE, g)
            grid = loop.grid(64)
            prob = gsore_problem(elem, self.ONE, self.ONE, g, points=64)
            assert prob.origin_pole is origin
            want = grid if origin else np.concatenate([[0.0], grid])
            assert np.array_equal(prob.samples.omega, want)
            samples, _ = nsv_grid_samples(g, self.ONE, self.ONE, self.ONE, elem,
                                          points=64, refine=0)
            assert np.array_equal(samples.omega, grid)

    def test_too_sparse_on_every_path(self):
        band = np.logspace(-2, 2, 200)
        g = tf([0.8], [1.0, 1.0])
        table = FrfTable(band, evaluate(g, band))
        elem = gsore(2.0, 1.0, 0.4, 0.4)
        for plant, extra in ((g, {}), (table, {"origin_pole": False, "n_minus_m": 3, "k_n": 0.8})):
            with pytest.raises(GridTooSparse):
                Loop(elem, self.ONE, self.ONE, plant).grid(31)
            with pytest.raises(GridTooSparse):
                nsv_grid_samples(plant, self.ONE, self.ONE, self.ONE, gfore(1.0), points=31)
            with pytest.raises(GridTooSparse):
                certify_first_order(gfore(1.0), self.ONE, self.ONE, plant, points=31)
            with pytest.raises(GridTooSparse):
                gsore_problem(elem, self.ONE, self.ONE, plant, points=31, **extra)
            assert Loop(elem, self.ONE, self.ONE, plant).grid(32).size == 32
