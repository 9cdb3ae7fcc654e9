import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, stats

from l1net import net as net_module

from l1net.datagen import (
    DataSpec,
    _expected_max_sq,
    Dataset,
    TeacherSpec,
    make_teacher,
    read_dataset_csv,
    sample_truncated_normal,
    synthesize,
    write_dataset_csv,
)
from l1net.net import Activation, forward_batch
from l1net.sparsity import param_l1_norm


def test_data_spec_defaults_and_bounds():
    spec = DataSpec()
    assert spec.x_std == 1.0 and spec.noise_std == 0.1
    assert spec.cutoff_factor == 10.0
    assert spec.input_bound == 10.0
    assert spec.score_bound == 10.0
    other = DataSpec(x_std=2.0, cutoff_factor=5.0)
    assert other.input_bound == 10.0
    assert other.score_bound == 2.5


def test_data_spec_validation():
    with pytest.raises(ValueError):
        DataSpec(x_std=0.0)
    with pytest.raises(ValueError):
        DataSpec(noise_std=-0.1)
    with pytest.raises(ValueError):
        DataSpec(cutoff_factor=0.0)
    DataSpec(noise_std=0.0)  # noiseless runs are allowed


def test_truncated_normal_stays_inside_cutoff():
    rng = np.random.default_rng(0)
    x = sample_truncated_normal(0.0, 1.0, 10.0, rng, size=10**6)
    assert np.max(np.abs(x)) <= 10.0
    # at a 10-sigma cutoff the truncation is invisible at MC resolution
    assert abs(float(x.mean())) < 5e-3
    assert abs(float(x.std()) - 1.0) < 5e-3


def test_truncated_normal_tight_cutoff():
    rng = np.random.default_rng(1)
    x = sample_truncated_normal(2.0, 1.5, 0.5, rng, size=200_000)
    assert np.max(np.abs(x - 2.0)) <= 0.75
    # conditioning on a narrow window shrinks the variance
    assert float(x.std()) < 0.5


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the proposals drawn: the
    sampler fills its proposals into ``out`` and draws acceptance uniforms
    by ``size``."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.proposals = 0

    def standard_normal(self, *, out):
        self.proposals += out.size
        return self._rng.standard_normal(out=out)

    def random(self, size=None, *, out=None):
        if out is not None:
            self.proposals += out.size
        return self._rng.random(size, out=out)


def test_truncated_normal_narrow_cutoff_is_cheap():
    # normal proposals would need about 1/(0.8 c) = 1246 tries per draw here
    rng = _CountingGenerator(2)
    x = sample_truncated_normal(1.0, 2.0, 1e-3, rng, size=10_000)
    assert rng.proposals < 4 * x.size
    assert np.max(np.abs(x - 1.0)) <= 2e-3
    assert abs(sample_truncated_normal(0.0, 1.0, 1e-9, rng, size=1)[0]) <= 1e-9


def test_truncated_normal_matches_scipy_truncnorm():
    x = sample_truncated_normal(1.0, 2.0, 0.5, np.random.default_rng(0), size=20_000)
    law = stats.truncnorm(-0.5, 0.5, loc=1.0, scale=2.0)
    assert stats.kstest(x, law.cdf).pvalue > 0.01


def test_truncated_normal_deterministic():
    a = sample_truncated_normal(0.0, 1.0, 10.0, np.random.default_rng(5), size=100)
    b = sample_truncated_normal(0.0, 1.0, 10.0, np.random.default_rng(5), size=100)
    np.testing.assert_array_equal(a, b)


def _traced_peak(fn):
    """``fn()`` and the peak bytes it allocated, traced by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cutoff", [10.0, 0.5])
def test_truncated_normal_peak_memory_near_its_output(cutoff):
    # the masks come in cache-sized pieces, with no float temporary as large
    # as the draw (full-size temporaries peaked at 3.0x and 5.1x the output)
    x, peak = _traced_peak(lambda: sample_truncated_normal(
        0.0, 1.0, cutoff, np.random.default_rng(1), size=(20_000, 100)))
    assert peak <= 1.35 * x.nbytes


@pytest.mark.parametrize("cutoff", [10.0, 1.5, 0.5])
def test_truncated_normal_pieces_move_no_bit(monkeypatch, cutoff):
    def draw():
        rng = _CountingGenerator(8)
        x = sample_truncated_normal(0.3, 2.0, cutoff, rng, size=(37, 11))
        # the stream goes on where one whole-array draw leaves it
        return x, rng.random(3), rng.proposals

    whole, after, proposals = draw()
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 7)
    pieces, after_pieces, _ = draw()
    assert whole.tobytes() == pieces.tobytes()
    assert after.tobytes() == after_pieces.tobytes()
    # both proposal kinds are rejected somewhere, except at 10 sigma
    assert (proposals > whole.size) == (cutoff < 10.0)


def _reference_sampler(mean, std, cutoff, rng, size):
    """The sampler as one construction: ``rng.normal`` proposals from cutoff 1
    up, else ``rng.uniform`` proposals, each followed by its piece's
    ``rng.random`` acceptance uniforms; rejects redrawn until none is left."""
    def propose(k):
        if cutoff >= 1.0:
            x = rng.normal(mean, std, size=k)
            return x, np.abs(x - mean) <= cutoff * std
        x = rng.uniform(-cutoff, cutoff, size=k)
        keep = np.empty(k, bool)
        for piece in net_module._pieces(k, 1):
            u = x[piece]
            accept = rng.random(len(u)) < np.exp(-0.5 * u * u)
            x[piece] = mean + std * u
            keep[piece] = (np.abs(x[piece] - mean) <= cutoff * std) & accept
        return x, keep

    flat, keep = propose(int(np.prod(size)))
    bad = ~keep
    while bad.any():
        flat[bad], keep = propose(int(bad.sum()))
        bad[bad] = ~keep
    return flat.reshape(size)


@pytest.mark.parametrize("mean, std, cutoff, size", [
    (0.3, 2.0, 10.0, (37, 11)),
    (-1.0, 0.5, 1.0, 5_000),  # about 32% of normal proposals rejected
    (4.0, 3.0, 1.5, (300, 7)),
    (1.0, 2.0, 0.5, 300_000),  # uniform proposals over three acceptance pieces
    (2.0, 1.5, 1e-3, (100, 3)),
])
def test_truncated_normal_matches_its_reference_construction(mean, std, cutoff, size):
    # filling proposals in place and then accepting them gives the bits of
    # rng.normal / rng.uniform proposals, and leaves the generator where they do
    ref_rng, rng = np.random.default_rng(17), np.random.default_rng(17)
    want = _reference_sampler(mean, std, cutoff, ref_rng, size)
    got = sample_truncated_normal(mean, std, cutoff, rng, size=size)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert rng.random(3).tobytes() == ref_rng.random(3).tobytes()


def test_dataset_box_check_is_the_samplers(monkeypatch):
    # the check reads every piece and keeps its 1e-12 slack and NaN verdict
    spec = DataSpec(x_std=1.5, mean=-0.7)
    bound = spec.input_bound * (1.0 + 1e-12)
    monkeypatch.setattr(net_module, "_BLOCK_ELEMS", 7)
    X = np.zeros((5, 4))
    for value in (spec.mean + bound, np.nextafter(spec.mean + bound, np.inf),
                  spec.mean - bound, np.nextafter(spec.mean - bound, -np.inf),
                  spec.mean + spec.input_bound, np.nan, np.inf):
        X[-1, -1] = value
        if np.all(np.abs(X - spec.mean) <= bound):
            Dataset(X, np.zeros(5), spec)
        else:
            with pytest.raises(ValueError, match="^X contains entries outside the truncation box$"):
                Dataset(X, np.zeros(5), spec)


def test_make_teacher_sparsity_pattern():
    spec = TeacherSpec(d=20, s=4, L=3, h=6, seed=9)
    teacher = make_teacher(spec)
    first = teacher.layers[0]
    assert first.shape == (6, 20)
    assert np.all(first[:, 4:] == 0.0)
    assert np.any(first[:, :4] != 0.0)
    assert teacher.layer_sizes == (20, 6, 6, 1)
    assert teacher.activation is Activation.SOFTPLUS


def test_make_teacher_deterministic_and_activation():
    spec = TeacherSpec(d=10, s=3, L=2, h=4, seed=21)
    a = make_teacher(spec)
    b = make_teacher(spec)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)
    r = make_teacher(spec, activation=Activation.RELU)
    assert r.activation is Activation.RELU
    for la, lr in zip(a.layers, r.layers):
        np.testing.assert_array_equal(la, lr)


def test_teacher_spec_validation():
    with pytest.raises(ValueError):
        TeacherSpec(d=5, s=6, L=2, h=3, seed=0)
    with pytest.raises(ValueError):
        TeacherSpec(d=5, s=0, L=2, h=3, seed=0)
    with pytest.raises(ValueError):
        TeacherSpec(d=5, s=2, L=1, h=3, seed=0)
    full = TeacherSpec(d=5, s=5, L=2, h=3, seed=0)
    teacher = make_teacher(full)
    assert param_l1_norm(teacher) > 0


def test_synthesize_noiseless_matches_forward():
    spec = TeacherSpec(d=8, s=3, L=2, h=5, seed=2)
    teacher = make_teacher(spec)
    ds = synthesize(teacher, 64, DataSpec(noise_std=0.0), np.random.default_rng(3))
    assert ds.n == 64 and ds.d == 8
    np.testing.assert_array_equal(ds.y, forward_batch(teacher, ds.X))
    assert np.max(np.abs(ds.X)) <= 10.0


def test_synthesize_noise_level():
    spec = TeacherSpec(d=8, s=3, L=2, h=5, seed=2)
    teacher = make_teacher(spec)
    big = synthesize(teacher, 100_000, DataSpec(noise_std=0.3), np.random.default_rng(4))
    resid = big.y - forward_batch(teacher, big.X)
    assert abs(float(resid.mean())) < 5e-3
    assert abs(float(resid.std()) - 0.3) < 5e-3


def test_dataset_validation():
    spec = DataSpec()
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Dataset(X, np.array([1.0, 2.0]), spec)  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.full((3, 2), 11.0), np.zeros(3), spec)  # outside the box
    with pytest.raises(ValueError):
        Dataset(X, np.array([1.0, np.nan, 0.0]), spec)


def test_score_bound_is_respected_on_samples():
    spec = DataSpec(x_std=0.5)
    rng = np.random.default_rng(6)
    X = sample_truncated_normal(0.0, 0.5, 10.0, rng, size=(500, 4))
    score = -(X - spec.mean) / spec.x_std ** 2  # the input law's score
    assert np.max(np.abs(score)) <= spec.score_bound + 1e-12


def test_csv_round_trip_exact(tmp_path):
    spec = TeacherSpec(d=3, s=2, L=2, h=4, seed=8)
    teacher = make_teacher(spec)
    dspec = DataSpec()
    ds = synthesize(teacher, 17, dspec, np.random.default_rng(11))
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    assert path.read_text().splitlines()[0] == "x1,x2,x3,y"

    back = read_dataset_csv(path, dspec)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)


def test_write_dataset_csv_bytes_are_pinned(tmp_path):
    # The file format is frozen: 17 significant digits per value, exponents
    # included, a newline after every line.
    rng = np.random.default_rng(21)
    ds = Dataset(rng.normal(size=(6, 3)), 1e200 * rng.normal(size=6), DataSpec())
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "89b34ee35020fe351207f541d28ca66028bf3f5392d72e0d03e0a641b5632757")


def test_write_dataset_csv_streams_its_lines(tmp_path):
    # Lines go to the file one at a time; building the whole text first
    # peaked at more than twice the file's size.
    rng = np.random.default_rng(22)
    ds = Dataset(rng.normal(size=(2000, 50)), rng.normal(size=2000), DataSpec())
    path = tmp_path / "data.csv"
    _, peak = _traced_peak(lambda: write_dataset_csv(ds, path))
    assert peak <= 0.05 * path.stat().st_size


@pytest.mark.parametrize("text", [
    "x1,x2,z\n1,2,3\n",
    "x1,x2,y\n1,2,3\n1,2\n",
    "x1,x2,y\n1,2\n1,2\n",
    "x1,x2,y\n1,abc,3\n",
    "x1,x2,y\n\n",
], ids=["header", "short_row", "short_rows", "not_a_number", "no_rows"])
def test_read_dataset_csv_rejects_malformed_files(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ValueError, not a warning first
        with pytest.raises(ValueError):
            read_dataset_csv(path, DataSpec())


def test_read_dataset_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,y\n1,2,3\n\n  \n4,5,6\n")
    ds = read_dataset_csv(path, DataSpec())
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0], [4.0, 5.0]])
    np.testing.assert_array_equal(ds.y, [3.0, 6.0])


# -- E max_i x_i^2 by quadrature -----------------------------------------------

_MAX_SQ_LAWS = [  # (mean, x_std, cutoff_factor)
    (0.0, 1.0, 10.0),  # the default law, tail cut below double precision
    (0.7, 1.3, 3.0),  # shifted mean
    (-1.2, 0.8, 40.0),  # shifted, with a far box
    (0.3, 2.0, 0.5),  # cutoff_factor < 1
    (3.0, 0.5, 2.0),  # a box that excludes 0
    (-3.0, 0.5, 2.0),  # its mirror image
    (2.0, 1.0, 1.5),  # a box whose near edge is a kink of q
]


def _max_sq_reference(mean, x_std, cutoff, d):
    """``int_0^T 2t (1 - q(t)^d) dt`` by adaptive quadrature over scipy's
    truncated-normal CDF, split at q's kinks."""
    law = stats.truncnorm(-cutoff, cutoff, loc=mean, scale=x_std)
    low, high = mean - cutoff * x_std, mean + cutoff * x_std

    def integrand(t):
        lo, hi = max(-t, low), min(t, high)
        q = law.cdf(hi) - law.cdf(lo) if hi > lo else 0.0
        return 2.0 * t * (1.0 - q ** d)

    T = max(abs(low), abs(high))
    kinks = [k for k in (abs(mean) - cutoff * x_std, cutoff * x_std - mean,
                         cutoff * x_std + mean) if 0.0 < k < T]
    with warnings.catch_warnings():  # quad's roundoff notice near 1e-13
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(integrand, 0.0, T, points=kinks or None, limit=500,
                              epsabs=0.0, epsrel=1e-13)[0]


@pytest.mark.parametrize("d", [1, 7, 100])
@pytest.mark.parametrize("law", _MAX_SQ_LAWS, ids=str)
def test_expected_max_sq_matches_scipy(law, d):
    mean, x_std, cutoff = law
    got = _expected_max_sq(DataSpec(x_std=x_std, cutoff_factor=cutoff, mean=mean), d)
    assert got == pytest.approx(_max_sq_reference(mean, x_std, cutoff, d), rel=1e-10, abs=0)
    # E max_i x_i^2 lies between the squared near and far ends of |x|'s range
    near, far = max(0.0, abs(mean) - cutoff * x_std), abs(mean) + cutoff * x_std
    assert near ** 2 <= got <= far ** 2


@pytest.mark.parametrize("d", [1, 100])
@pytest.mark.parametrize("mean", [0.0, -1.2, 5.0])
def test_expected_max_sq_ignores_a_box_past_double_precision(mean, d):
    at = {c: _expected_max_sq(DataSpec(cutoff_factor=c, mean=mean), d) for c in (40.0, 1e300)}
    assert at[1e300] == at[40.0]


def test_expected_max_sq_agrees_with_sampling():
    # the retired 10^5-draw estimate, in 20k-row chunks, as the reference
    spec, d, draws = DataSpec(), 100, 100_000
    rng = np.random.default_rng(np.random.SeedSequence((0, 3)))
    maxima = np.concatenate([
        np.abs(sample_truncated_normal(spec.mean, spec.x_std, spec.cutoff_factor, rng,
                                       size=(20_000, d))).max(axis=1) ** 2
        for _ in range(draws // 20_000)
    ])
    standard_error = maxima.std(ddof=1) / np.sqrt(draws)
    assert abs(_expected_max_sq(spec, d) - maxima.mean()) <= 4.0 * standard_error
