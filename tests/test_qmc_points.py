"""Point generators, transforms, and periodizers."""

import itertools
import os
import shutil
import tracemalloc

import numpy as np
import pytest

from certint import (
    ConfigurationError,
    DataFileError,
    LatticeGenerator,
    Periodizer,
    RngStream,
    SobolGenerator,
    fft,
    fwht_inplace,
    periodize,
)
from certint import qmc_points
from certint.qmc_points import (
    _FWHT_CHUNK,
    _SOBOL_FILE,
    SOBOL_MAX_BITS,
    SOBOL_MAX_DIM,
    _cache,
    _load_text,
    _sobol_table,
    periodizer_map_weight,
)


class TestSobol:
    def test_first_points_gray_order(self):
        gen = SobolGenerator(1)
        natural = gen.points(0, 4)[:, 0]
        # Gray-code sequence positions 1..3 are natural indices 1, 3, 2
        assert natural[[1, 3, 2]].tolist() == [0.5, 0.75, 0.25]
        assert natural[0] == 0.0
        assert set(natural.tolist()) == {0.0, 0.25, 0.5, 0.75}

    def test_shifted_equidistribution(self):
        gen = SobolGenerator(2, rng=RngStream(5))
        pts = gen.points(0, 2**14)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 1e-3)
        assert np.all((pts >= 0) & (pts < 1))

    def test_net_property_low_dim(self):
        # one point in every elementary dyadic box, all shapes (t = 0
        # holds for the first two coordinates)
        for d, m in [(1, 6), (2, 6)]:
            pts = SobolGenerator(d).points(0, 2**m)
            for shape in _compositions(m, d):
                scaled = [np.floor(pts[:, j] * 2**k).astype(int)
                          for j, k in enumerate(shape)]
                cells = np.ravel_multi_index(
                    scaled, [2**k for k in shape], mode="clip")
                counts = np.bincount(cells, minlength=2**m)
                assert np.all(counts == 1), (d, m, shape)

    def test_one_dim_projections_stratified(self):
        m = 8
        pts = SobolGenerator(10).points(0, 2**m)
        for j in range(10):
            cells = np.floor(pts[:, j] * 2**m).astype(int)
            assert np.all(np.bincount(cells, minlength=2**m) == 1)

    def test_scramble_preserves_stratification(self):
        gen = SobolGenerator(4, rng=RngStream(99))
        pts = gen.points(0, 256)
        for j in range(4):
            cells = np.floor(pts[:, j] * 256).astype(int)
            assert np.all(np.bincount(cells, minlength=256) == 1)

    def test_dimension_limit(self):
        SobolGenerator(1111)
        with pytest.raises(ConfigurationError):
            SobolGenerator(1112)
        with pytest.raises(ConfigurationError):
            SobolGenerator(0)


def _sobol_reference(gen, start, stop):
    """Natural-order Sobol' points by masked XOR over every index bit."""
    idx = np.arange(start, stop, dtype=np.uint64)
    state = np.zeros((idx.size, gen.dimension), dtype=np.uint64)
    for b in range(SOBOL_MAX_BITS):
        mask = (idx >> np.uint64(b)) & np.uint64(1) == 1
        state[mask] ^= gen._v[:, b]
    state ^= gen.digital_shift
    return state.astype(np.float64) / float(1 << SOBOL_MAX_BITS)


class TestSobolOracle:
    """``points`` equals the per-bit reference bit for bit."""

    RANGES = [(0, 0), (0, 1), (1, 2), (3, 1000), (1024, 2048),
              (1000, 70000), (2**20 - 7, 2**20 + 9),
              (2**53 - 3, 2**53)]

    @pytest.mark.parametrize("d", [1, 3, 7])
    @pytest.mark.parametrize("scrambled", [False, True])
    def test_matches_reference(self, d, scrambled):
        gen = SobolGenerator(d, rng=RngStream(5) if scrambled else None)
        for start, stop in self.RANGES:
            got = gen.points(start, stop)
            want = _sobol_reference(gen, start, stop)
            assert got.shape == (stop - start, d)
            assert got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), \
                (start, stop)

    def test_refining_block_extends_prefix(self):
        gen = SobolGenerator(3, rng=RngStream(5))
        whole = gen.points(0, 2**12)
        parts = np.vstack([gen.points(0, 2**10), gen.points(2**10, 2**11),
                           gen.points(2**11, 2**12)])
        assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))

    def test_range_checked(self):
        gen = SobolGenerator(2)
        with pytest.raises(ConfigurationError):
            gen.points(5, 4)
        with pytest.raises(ConfigurationError):
            gen.points(0, 2**53 + 1)


def _compositions(total, parts):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _lattice_level(gen, m):
    """All 2^m points of the lattice at level m, natural order."""
    return gen.points_at_level(m, np.arange(2**m))


class TestLattice:
    def test_one_dim_grid(self):
        gen = LatticeGenerator(1)
        pts = _lattice_level(gen, 3)[:, 0]
        assert set(pts.tolist()) == {k / 8 for k in range(8)}

    def test_shift_moves_points(self):
        base = LatticeGenerator(2)
        shifted = LatticeGenerator(2, rng=RngStream(3))
        assert np.all((shifted.shift > 0) & (shifted.shift < 1))
        a = _lattice_level(base, 4)
        b = _lattice_level(shifted, 4)
        assert np.allclose(np.mod(a + shifted.shift, 1.0), b)

    def test_projection_gap(self):
        pts = _lattice_level(LatticeGenerator(2), 10)
        for j in range(2):
            xs = np.sort(pts[:, j])
            gaps = np.diff(np.concatenate([xs, [xs[0] + 1.0]]))
            assert gaps.max() < 2.0 / 2**10

    def test_group_property(self):
        pts = _lattice_level(LatticeGenerator(3), 5)
        rows = {tuple(np.round(p, 12)) for p in pts}
        for a, b in itertools.islice(itertools.product(pts, repeat=2), 300):
            s = tuple(np.round(np.mod(a + b, 1.0), 12))
            assert s in rows

    def test_index_chunks_match_whole(self):
        gen = LatticeGenerator(5, rng=RngStream(3))
        idx = np.arange(1, 2**12, 2)
        whole = gen.points_at_level(12, idx)
        parts = np.vstack([gen.points_at_level(12, idx[:700]),
                           gen.points_at_level(12, idx[700:])])
        assert np.array_equal(whole.view(np.uint64), parts.view(np.uint64))

    @pytest.mark.parametrize("m, d", [(0, 1), (1, 3), (5, 2), (10, 7),
                                      (12, 250)])
    def test_wrap_matches_mod_reference(self, m, d):
        gen = LatticeGenerator(d, rng=RngStream(m + d))
        idx = np.arange(2**m)
        raw = ((idx[:, None] * gen.generating_vector[None, :]) & (2**m - 1)
               ) / float(2**m) + gen.shift
        got = gen.points_at_level(m, idx)
        want = np.mod(raw, 1.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if m:
            assert np.any(raw >= 1.0)

    def test_wrap_of_sums_that_hit_one(self):
        # a shift on the level's grid makes some k z / 2^m + shift exactly
        # 1.0, which must wrap to +0.0
        gen = LatticeGenerator(3)
        gen.shift = np.array([0.25, 0.5, 0.875])
        idx = np.arange(8)
        raw = ((idx[:, None] * gen.generating_vector[None, :]) & 7) / 8.0 \
            + gen.shift
        got = gen.points_at_level(3, idx)
        assert np.any(raw == 1.0)
        assert np.array_equal(got.view(np.uint64),
                              np.mod(raw, 1.0).view(np.uint64))

    def test_odd_vector_and_limits(self):
        gen = LatticeGenerator(250)
        assert np.all(gen.generating_vector % 2 == 1)
        with pytest.raises(ConfigurationError):
            LatticeGenerator(251)
        with pytest.raises(ConfigurationError):
            gen.points_at_level(27, np.arange(1))


class TestTransforms:
    def test_fwht_constant(self):
        out = fwht_inplace(np.array([1.0, 1.0, 1.0, 1.0]))
        assert out.tolist() == [4.0, 0.0, 0.0, 0.0]

    def test_fwht_two_point(self):
        assert fwht_inplace(np.array([1.0, -1.0])).tolist() == [0.0, 2.0]

    def test_fwht_involution(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=1024)
        w = fwht_inplace(fwht_inplace(v.copy()))
        assert np.max(np.abs(w - 1024 * v)) / np.max(np.abs(v)) < 1e-12

    def test_fwht_linear(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 256))
        lhs = fwht_inplace(2.0 * a + 3.0 * b)
        rhs = 2.0 * fwht_inplace(a.copy()) + 3.0 * fwht_inplace(b.copy())
        assert np.allclose(lhs, rhs)

    @pytest.mark.parametrize(
        "n", [1, 2, 4, 8, 16, 32, 2**10, 2**16, 2**17, 2**18])
    def test_fwht_matches_copy_per_stage_loop(self, n):
        v = np.random.default_rng(n).normal(size=n) * 10.0 ** \
            np.random.default_rng(n + 1).integers(-8, 8, size=n)
        want = v.copy()
        h = 1
        while h < n:
            view = want.reshape(-1, 2 * h)
            left = view[:, :h].copy()
            right = view[:, h:]
            view[:, :h] = left + right
            view[:, h:] = left - right
            h *= 2
        got = fwht_inplace(v)
        assert got is v
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def _fwht_peak(n):
        v = np.ones(n)
        fwht_inplace(v)
        tracemalloc.start()
        try:
            fwht_inplace(v)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_fwht_scratch_is_one_chunk(self):
        # the scratch holds _FWHT_CHUNK elements whatever the length (half
        # the length would be 4 MiB here)
        peak = self._fwht_peak(2**20)
        assert peak <= 8 * _FWHT_CHUNK + 2**14, peak

    def test_fwht_allocates_only_its_scratch(self):
        # the scratch is half the length here, 256 KiB; numpy's iterator
        # buffers of 8192 elements per operand on the 2-d views of the
        # stages h >= 16 would add 128-192 KiB
        n = 2**16
        peak = self._fwht_peak(n)
        assert peak <= 8 * (n // 2) + 2**14, peak

    def test_fwht_rejects_non_power(self):
        with pytest.raises(ConfigurationError):
            fwht_inplace(np.ones(12))

    def test_fft_constant(self):
        out = fft(np.full(8, 3.0))
        assert abs(out[0] - 24.0) < 1e-14
        assert np.all(np.abs(out[1:]) < 1e-14)

    def test_fft_single_mode(self):
        n = 64
        k = 5
        v = np.exp(2j * np.pi * k * np.arange(n) / n)
        out = fft(v)
        assert abs(out[k] - n) < 1e-10
        out[k] = 0.0
        assert np.max(np.abs(out)) < 1e-10

    def test_fft_parseval(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        out = fft(v)
        lhs = np.sum(np.abs(v)**2)
        rhs = np.sum(np.abs(out)**2) / 4096
        assert abs(lhs - rhs) / lhs < 1e-12

    def test_fft_inversion(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=512)
        back = np.fft.ifft(fft(v))
        assert np.max(np.abs(back - v)) < 1e-12


class TestPeriodizers:
    def test_baker_tent_value(self):
        g = periodize(lambda x: x, Periodizer.BAKER)
        assert g(np.array([[0.25]]))[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("shape", [(7,), (1000, 8)])
    def test_baker_matches_expression(self, shape):
        # bit for bit against the expression with a temporary per operation
        u = np.random.default_rng(21).random(shape)
        u.flat[:6] = [0.0, 0.5, 1.0, 0.25, np.nextafter(0.5, 0.0),
                      np.nextafter(1.0, 0.0)]
        before = u.copy()
        tent, weight = periodizer_map_weight(Periodizer.BAKER, u)
        want = 1.0 - np.abs(2.0 * u - 1.0)
        assert weight is None
        assert tent.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        assert np.array_equal(u, before)

    def test_c1sin_weight_kills_endpoints(self):
        for u in (0.0, 1.0):
            _, w = periodizer_map_weight(Periodizer.C1SIN, np.array([u]))
            assert w[0] == pytest.approx(0.0, abs=1e-15)

    def test_measure_preserving_maps_have_no_weight(self):
        u = np.array([[0.1, 0.7]])
        for variant in (Periodizer.ID, Periodizer.BAKER):
            _, w = periodizer_map_weight(variant, u)
            assert w is None, variant

    def test_integral_preserved_constant(self):
        xs = np.linspace(0, 1, 1_000_001)[:, None]
        for variant in Periodizer:
            g = periodize(lambda x: np.ones(x.shape[0]), variant)
            val = np.trapezoid(g(xs), dx=1e-6)
            assert abs(val - 1.0) < 1e-9, variant

    def test_integral_preserved_polynomials(self):
        xs = np.linspace(0, 1, 1_000_001)[:, None]
        rng = np.random.default_rng(4)
        for _ in range(5):
            coefs = rng.normal(size=4)
            f = lambda x, c=coefs: (c[0] + c[1] * x[:, 0] + c[2] * x[:, 0]**2
                                    + c[3] * x[:, 0]**3)
            truth = coefs[0] + coefs[1] / 2 + coefs[2] / 3 + coefs[3] / 4
            for variant in Periodizer:
                g = periodize(f, variant)
                val = np.trapezoid(g(xs), dx=1e-6)
                assert abs(val - truth) < 1e-9, variant


def _reference_sobol_table():
    """The direction integers built one dimension and one column at a time
    with Python integers, as the table was built before the recurrence ran
    across all dimensions at once."""
    rows = _load_text(_SOBOL_FILE)
    if rows and rows[0].lstrip().startswith("d"):
        rows = rows[1:]
    v = np.zeros((SOBOL_MAX_DIM, SOBOL_MAX_BITS), dtype=np.uint64)
    for k in range(SOBOL_MAX_BITS):
        v[0, k] = np.uint64(1) << np.uint64(SOBOL_MAX_BITS - 1 - k)
    for ln in rows:
        parts = ln.split()
        d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
        ms = [int(x) for x in parts[3:3 + s]]
        if d > SOBOL_MAX_DIM:
            break
        vk = [0] * SOBOL_MAX_BITS
        for k in range(min(s, SOBOL_MAX_BITS)):
            vk[k] = ms[k] << (SOBOL_MAX_BITS - 1 - k)
        for k in range(s, SOBOL_MAX_BITS):
            val = vk[k - s] ^ (vk[k - s] >> s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    val ^= vk[k - i]
            vk[k] = val
        v[d - 1, :] = vk
    return v


class TestSobolTable:
    def test_equals_reference_builder(self):
        table = _sobol_table()
        assert table.dtype == np.uint64
        assert table.shape == (SOBOL_MAX_DIM, SOBOL_MAX_BITS)
        assert np.array_equal(table, _reference_sobol_table())

    @pytest.mark.parametrize("order", [(1, 2, 3, 5, 64, 1111),
                                       (1111, 64, 5, 3, 2, 1),
                                       (5, 1, 64, 2, 1111, 3)])
    def test_rows_built_as_asked(self, order):
        # the table holds the most rows asked for so far and grows on demand
        ref = _reference_sobol_table()
        _cache.clear()
        try:
            for d in order:
                table = _sobol_table(d)
                assert table.dtype == np.uint64
                assert np.array_equal(table[:d], ref[:d]), d
            assert np.array_equal(_sobol_table(), ref)
        finally:
            _cache.clear()

    @pytest.mark.parametrize("dim", [1, 2, SOBOL_MAX_DIM])
    @pytest.mark.parametrize("fault", ["last row", "table", "checksum"])
    def test_data_checks_fire_for_any_dimension(self, tmp_path, monkeypatch,
                                                dim, fault):
        # a generator of any dimension checks every row of the file, not
        # only the rows it builds
        src = os.path.join(os.path.dirname(__file__), "..", "src", "certint",
                           "data", _SOBOL_FILE)
        with open(src) as fh:
            lines = fh.read().splitlines(keepends=True)
        if fault == "last row":
            lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\n"
        elif fault == "table":
            lines = lines[:-1]
        else:
            # a comment edit that only the checksum can see
            lines[0] = lines[0].rstrip("\n") + " edited\n"
        (tmp_path / _SOBOL_FILE).write_text("".join(lines))
        if fault == "checksum":
            monkeypatch.setattr(qmc_points, "_data_path",
                                lambda name: str(tmp_path / name))
        else:
            monkeypatch.setenv("GAILRS_DATA_DIR", str(tmp_path))
        _cache.clear()
        try:
            with pytest.raises(DataFileError):
                SobolGenerator(dim)
        finally:
            _cache.clear()

    def test_generator_builds_only_its_rows(self):
        _cache.clear()
        try:
            SobolGenerator(3)
            assert _cache["sobol"].shape == (3, SOBOL_MAX_BITS)
        finally:
            _cache.clear()


class TestDataFiles:
    def test_env_relocation(self, tmp_path, monkeypatch):
        src = os.path.join(os.path.dirname(__file__), "..", "src", "certint",
                           "data")
        for name in os.listdir(src):
            shutil.copy(os.path.join(src, name), tmp_path / name)
        monkeypatch.setenv("GAILRS_DATA_DIR", str(tmp_path))
        _cache.clear()
        try:
            gen = SobolGenerator(5)
            assert gen.points(0, 4).shape == (4, 5)
        finally:
            _cache.clear()

    def test_corrupt_vector_rejected(self, tmp_path, monkeypatch):
        src = os.path.join(os.path.dirname(__file__), "..", "src", "certint",
                           "data")
        for name in os.listdir(src):
            shutil.copy(os.path.join(src, name), tmp_path / name)
        bad = tmp_path / "lattice_generating_vector.txt"
        text = bad.read_text().replace("\t26945", "\t26946")
        bad.write_text(text)
        monkeypatch.setenv("GAILRS_DATA_DIR", str(tmp_path))
        _cache.clear()
        try:
            with pytest.raises(DataFileError):
                LatticeGenerator(2)
        finally:
            _cache.clear()

    @pytest.mark.parametrize("cut", ["row", "table"])
    def test_malformed_sobol_table_rejected(self, tmp_path, monkeypatch, cut):
        src = os.path.join(os.path.dirname(__file__), "..", "src", "certint",
                           "data")
        for name in os.listdir(src):
            shutil.copy(os.path.join(src, name), tmp_path / name)
        bad = tmp_path / "sobol_direction_numbers.txt"
        lines = bad.read_text().splitlines(keepends=True)
        if cut == "row":
            row = next(i for i, ln in enumerate(lines) if ln.startswith("3\t"))
            lines[row] = "3\t2\t1\t1\n"
        else:
            lines = lines[:500]
        bad.write_text("".join(lines))
        monkeypatch.setenv("GAILRS_DATA_DIR", str(tmp_path))
        _cache.clear()
        try:
            with pytest.raises(DataFileError):
                SobolGenerator(2)
        finally:
            _cache.clear()

    def test_checksum_guard(self, monkeypatch):
        from certint import qmc_points
        _cache.clear()
        monkeypatch.setitem(qmc_points._PINNED_SHA256,
                            "sobol_direction_numbers.txt", "0" * 64)
        try:
            with pytest.raises(DataFileError):
                SobolGenerator(2)
        finally:
            _cache.clear()
