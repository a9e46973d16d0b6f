import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from qcqpd import (
    EIGENVALUE_RANGES,
    Kernel,
    MklSpec,
    RandomQcqpSpec,
    SolverConfig,
    build_mkl_qcqp,
    gen_infeasible,
    gen_random_qcqp,
    gen_twonorm,
    gen_unbounded,
    gram_matrix,
    load_csv_dataset,
    save_problem,
    validate,
)
from qcqpd.cli import main
from qcqpd.generators import DEFAULT_MKL_KERNELS
from reference import kernel_eval, objective


class TestRandomQcqp:
    def test_spectra_match_spec(self):
        spec = RandomQcqpSpec(n1=32, m1=2, d_min=4.0, d_max=5.0, seed=12)
        p = gen_random_qcqp(spec)
        for Pi in p.P:
            w = np.linalg.eigvalsh(Pi)
            assert w[0] >= spec.d_min - 1e-8
            assert w[-1] <= spec.d_max + 1e-8
            assert w[-1] / w[0] == pytest.approx(spec.kappa, rel=1e-6)
            assert np.abs(Pi - Pi.T).max() <= 1e-12

    def test_condition_number_table(self):
        assert EIGENVALUE_RANGES[1.25] == (4.0, 5.0)
        assert EIGENVALUE_RANGES[1e2] == (0.1, 10.0)
        assert EIGENVALUE_RANGES[1e4] == (0.003, 30.0)
        assert EIGENVALUE_RANGES[1e6] == (0.00002, 20.0)
        for kappa, (lo, hi) in EIGENVALUE_RANGES.items():
            spec = RandomQcqpSpec(n1=8, m1=1, d_min=lo, d_max=hi)
            assert spec.kappa == pytest.approx(kappa, rel=1e-12)

    def test_deterministic_and_seed_sensitive(self, tmp_path):
        spec = RandomQcqpSpec(n1=12, m1=2, seed=7)
        a = gen_random_qcqp(spec)
        b = gen_random_qcqp(spec)
        for Pa, Pb in zip(a.P, b.P):
            assert np.array_equal(Pa, Pb)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        save_problem(a, pa)
        save_problem(b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        other = gen_random_qcqp(RandomQcqpSpec(n1=12, m1=2, seed=8))
        assert not np.array_equal(a.P[0], other.P[0])

    def test_origin_feasible_and_validates(self):
        p = gen_random_qcqp(RandomQcqpSpec(n1=10, m1=3, seed=1))
        assert (p.constraint_values(np.zeros(10), np.zeros(0)) <= 0).all()
        assert validate(p).ok

    def test_ranges_respected(self):
        p = gen_random_qcqp(RandomQcqpSpec(n1=16, m1=2, seed=2))
        for qi in p.q:
            assert (np.abs(qi) <= 1.0).all()
        assert (p.r >= -1.0).all() and (p.r <= 0.0).all()

    def test_box_request(self):
        p = gen_random_qcqp(RandomQcqpSpec(n1=4, m1=1, seed=3, box_upper=2.5))
        assert (p.x_upper == 2.5).all()

    def test_infinite_box_is_no_box(self, tmp_path):
        # +inf has one spelling, None, so the spec's fields record it as "no box"
        spec = RandomQcqpSpec(n1=4, m1=1, seed=3, box_upper=math.inf)
        assert spec.box_upper is None
        assert spec == RandomQcqpSpec(n1=4, m1=1, seed=3)
        inf_box, no_box = tmp_path / "inf.npz", tmp_path / "none.npz"
        save_problem(gen_random_qcqp(spec), inf_box)
        save_problem(gen_random_qcqp(RandomQcqpSpec(n1=4, m1=1, seed=3)), no_box)
        assert inf_box.read_bytes() == no_box.read_bytes()

    @pytest.mark.parametrize("fields, name", [
        ({"d_min": 1.0, "d_max": np.inf}, "d_max"),
        ({"d_min": np.nan, "d_max": 2.0}, "d_min"),
        ({"box_upper": np.nan}, "box_upper"),
    ])
    def test_non_finite_field_rejected(self, fields, name):
        with pytest.raises(ValueError, match=name):
            RandomQcqpSpec(n1=4, m1=1, **fields)


class TestPathologicalInstances:
    def test_infeasible_constraint_floor(self):
        p = gen_infeasible(16, seed=4)
        assert p.m1 == 2
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = 3.0 * rng.standard_normal(16)
            assert p.constraint_values(x, np.zeros(0))[1] >= 100.0
        assert validate(p).ok
        np.testing.assert_array_equal(p.P[2], np.ones(16))  # the identity, as its diagonal

    def test_unbounded_ray(self):
        p = gen_unbounded(8, seed=5)
        assert validate(p).ok
        ray = np.zeros(8)
        for t in (0.0, 10.0, 1e3):
            ray[-1] = t
            # objective falls linearly along the ray, constraint is blind to it
            assert objective(p, ray, np.zeros(0)) == pytest.approx(-t + p.r[0], rel=1e-15)
            assert p.constraint_values(ray, np.zeros(0))[0] == p.r[1]

    def test_unbounded_needs_two_dims(self):
        with pytest.raises(ValueError):
            gen_unbounded(1)


class TestKernels:
    @pytest.mark.parametrize("sigma2, label", [
        (0.123456789, "gaussian:0.123456789"), (0.5, "gaussian:0.5"), (1e-7, "gaussian:1e-07"),
        (np.float64(1 / 3), "gaussian:0.3333333333333333"),
    ])
    def test_label_is_exact(self, sigma2, label):
        assert Kernel("gaussian", sigma2).label() == label
        assert float(label.split(":")[1]) == sigma2

    def test_linear(self):
        assert kernel_eval(Kernel("linear"), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_polynomial(self):
        assert kernel_eval(Kernel("polynomial"), [1.0, 2.0], [3.0, 4.0]) == 144.0

    def test_gaussian_self_similarity(self):
        rng = np.random.default_rng(6)
        d = rng.standard_normal(5)
        assert kernel_eval(Kernel("gaussian", 0.3), d, d) == 1.0

    def test_gaussian_gram_properties(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((20, 4))
        K = gram_matrix(Kernel("gaussian", 2.0), X)
        assert np.array_equal(K, K.T)
        assert (K > 0).all() and (K <= 1.0).all()
        np.testing.assert_array_equal(np.diag(K), np.ones(20))

    def test_gram_matches_pointwise_eval(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 3))
        Y = rng.standard_normal((4, 3))
        for kern in (Kernel("linear"), Kernel("polynomial"), Kernel("gaussian", 1.5)):
            K = gram_matrix(kern, np.vstack([X, Y]))[:5, 5:]  # the cross block, as build_mkl_qcqp slices it
            assert K.shape == (5, 4)
            for j in range(5):
                for jp in range(4):
                    assert K[j, jp] == pytest.approx(kernel_eval(kern, X[j], Y[jp]), rel=1e-12)

    def test_gaussian_requires_positive_width(self):
        with pytest.raises(ValueError):
            Kernel("gaussian", 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Kernel("sigmoid")


class TestSeed:
    FAMILIES = {
        "random-qcqp": lambda seed: gen_random_qcqp(RandomQcqpSpec(n1=4, m1=1, seed=seed)),
        "infeasible": lambda seed: gen_infeasible(4, seed=seed),
        "unbounded": lambda seed: gen_unbounded(4, seed=seed),
        "mkl": lambda seed: build_mkl_qcqp(MklSpec(n_tr=6, n_t=2, seed=seed)),
        "twonorm": lambda seed: gen_twonorm(4, seed=seed),
    }

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0", None], ids=repr)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bad_seed_names_seed(self, family, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            self.FAMILIES[family](seed)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_numpy_integer_seed_accepted(self, family):
        self.FAMILIES[family](np.int64(3))


# every integer setting: the field its error names, and a call setting it to the value
INTEGER_SETTINGS = {
    "SolverConfig.max_iters": ("max_iters", lambda v: SolverConfig(max_iters=v)),
    "SolverConfig.n_workers": ("n_workers", lambda v: SolverConfig(n_workers=v)),
    "seed": ("seed", lambda v: gen_unbounded(4, seed=v)),
    "RandomQcqpSpec.n1": ("n1", lambda v: RandomQcqpSpec(n1=v, m1=1)),
    "RandomQcqpSpec.m1": ("m1", lambda v: RandomQcqpSpec(n1=4, m1=v)),
    "MklSpec.n_tr": ("n_tr", lambda v: MklSpec(n_tr=v)),
    "MklSpec.n_t": ("n_t", lambda v: MklSpec(n_t=v)),
    "gen_infeasible": ("n1", gen_infeasible),
    "gen_unbounded": ("n1", gen_unbounded),
    "gen_twonorm": ("n_points", gen_twonorm),
}


@pytest.mark.parametrize("value", [2.5, True, "4"], ids=repr)
@pytest.mark.parametrize("setting", INTEGER_SETTINGS)
def test_non_integer_setting_names_its_field(setting, value):
    field, build = INTEGER_SETTINGS[setting]
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        build(value)


# every real-valued setting: the field its error names, and a call setting it to the value
REAL_SETTINGS = {
    "SolverConfig.tol": ("tol", lambda v: SolverConfig(tol=v)),
    "SolverConfig.divergence_threshold": ("divergence_threshold", lambda v: SolverConfig(divergence_threshold=v)),
    "RandomQcqpSpec.d_min": ("d_min", lambda v: RandomQcqpSpec(n1=4, m1=1, d_min=v)),
    "RandomQcqpSpec.d_max": ("d_max", lambda v: RandomQcqpSpec(n1=4, m1=1, d_max=v)),
    "RandomQcqpSpec.box_upper": ("box_upper", lambda v: RandomQcqpSpec(n1=4, m1=1, box_upper=v)),
    "MklSpec.margin_c": ("margin_c", lambda v: MklSpec(margin_c=v)),
    "Kernel.sigma2": ("sigma2", lambda v: Kernel("gaussian", v)),
}


# box_upper=None is its default, no box
@pytest.mark.parametrize("setting, value", [
    (setting, value) for setting in REAL_SETTINGS for value in ("1", None, True, np.nan)
    if (setting, value) != ("RandomQcqpSpec.box_upper", None)
], ids=repr)
def test_non_real_setting_names_its_field(setting, value):
    field, build = REAL_SETTINGS[setting]
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build(value)


class TestTwonorm:
    def test_balance_and_determinism(self):
        X, y = gen_twonorm(200, seed=9)
        assert X.shape == (200, 20)
        assert (y == 1).sum() == 100 and (y == -1).sum() == 100
        X2, y2 = gen_twonorm(200, seed=9)
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_class_means(self):
        n = 10_000
        a = 2.0 / np.sqrt(20.0)
        X, y = gen_twonorm(n, seed=10)
        bound = 5.0 / np.sqrt(n / 2)  # 5 sigma of the sample mean
        assert np.abs(X[y == 1].mean(axis=0) - a).max() <= bound
        assert np.abs(X[y == -1].mean(axis=0) + a).max() <= bound

    def test_odd_count_is_a_prefix_of_the_next_even(self):
        X, y = gen_twonorm(7, seed=4)
        X8, y8 = gen_twonorm(8, seed=4)
        assert X.tobytes() == X8[:7].tobytes() and y.tobytes() == y8[:7].tobytes()
        assert (y == 1).sum() == 4 and (y == -1).sum() == 3


class TestMklBuild:
    def test_label_sign_flip(self):
        p, art = build_mkl_qcqp(MklSpec(n_tr=8, n_t=2, kernels=(Kernel("gaussian", 1.0),), seed=11))
        G = np.asarray(p.P[1])
        K = art.gram_train[0]
        l = art.labels_train
        np.testing.assert_allclose(G, K * np.outer(l, l), rtol=1e-15)

    def test_sm2_objective_hessian(self):
        C = 2.0
        p, _ = build_mkl_qcqp(MklSpec(n_tr=6, n_t=2, svm="sm2", margin_c=C, seed=12))
        np.testing.assert_array_equal(p.P[0], np.full(6, 1.0 / C))  # I / C, as its diagonal
        assert np.isinf(p.x_upper).all()

    def test_sm1_box_and_zero_hessian(self):
        C = 3.0
        p, _ = build_mkl_qcqp(MklSpec(n_tr=6, n_t=2, svm="sm1", margin_c=C, seed=12))
        np.testing.assert_array_equal(p.P[0], np.zeros(6))  # the zero matrix, as its diagonal
        assert (p.x_upper == C).all()

    @pytest.mark.parametrize("field", ["margin_c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MklSpec(**{field: value})

    # a --kernels string is parsed by the command line, not taken as its characters
    @pytest.mark.parametrize("kernels", ["gaussian:1", Kernel("linear"), ("linear",), [Kernel("linear"), None]],
                             ids=repr)
    def test_kernels_must_be_kernel_instances(self, kernels):
        with pytest.raises(ValueError, match="^kernels must be a tuple of Kernel"):
            MklSpec(kernels=kernels)

    def test_settings_are_seven_fields(self):
        # R is the number of kernels, twonorm is 20-dimensional and the data
        # source is csv_path or twonorm: none is a setting of its own
        names = [f.name for f in dataclasses.fields(MklSpec)]
        assert names == ["csv_path", "n_tr", "n_t", "kernels", "svm", "margin_c", "seed"]
        assert MklSpec(kernels=(Kernel("linear"), Kernel("polynomial"))).R == 2.0

    @pytest.mark.parametrize("n_tr, n_t", [(160, 40), (60, 15), (7, 1), (2, 1)])
    def test_test_points_default_to_a_quarter(self, n_tr, n_t):
        assert MklSpec(n_tr=n_tr).n_t == n_t
        assert MklSpec(n_tr=n_tr, n_t=3).n_t == 3

    def test_budget_default_and_slots(self):
        p, art = build_mkl_qcqp(MklSpec(n_tr=10, n_t=3, seed=13))
        assert len(DEFAULT_MKL_KERNELS) == 5
        assert art.spec.R == 5.0
        assert p.c[0][0] == 5.0
        for i in range(1, p.m1 + 1):
            assert p.c[i][0] == -1.0
        assert p.m2 == 1 and p.n2 == 1
        np.testing.assert_array_equal(p.A[0], art.labels_train)
        assert p.B[0, 0] == 0.0 and p.b[0] == 0.0

    def test_gram_normalization_unit_trace(self):
        _, art = build_mkl_qcqp(MklSpec(n_tr=10, n_t=5, seed=14))
        for Ktr, Kcross in zip(art.gram_train, art.gram_cross):
            total = np.trace(Ktr) + 0.0
            assert Ktr.shape == (10, 10) and Kcross.shape == (10, 5)
            assert total < 1.0  # training block of a unit-trace full Gram

    def test_output_validates(self):
        p, _ = build_mkl_qcqp(MklSpec(n_tr=12, n_t=4, seed=15))
        assert validate(p).ok

    def test_deterministic(self, tmp_path):
        spec = MklSpec(n_tr=8, n_t=2, seed=16)
        pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
        save_problem(build_mkl_qcqp(spec)[0], pa)
        save_problem(build_mkl_qcqp(spec)[0], pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_single_class_training_rejected(self, tmp_path):
        csv = tmp_path / "one_class.csv"
        rows = ["1," + ",".join(str(v) for v in np.random.default_rng(17).standard_normal(3)) for _ in range(10)]
        csv.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="single class"):
            build_mkl_qcqp(MklSpec(csv_path=str(csv), n_tr=6, n_t=2, seed=18))

    def test_sidecar_is_json_serializable(self, tmp_path):
        # generate mkl --meta records the spec's fields and the artifacts' split, as strict JSON
        meta = tmp_path / "meta.json"
        assert main(["generate", "mkl", "--ntr", "6", "--nt", "2", "--seed", "19",
                     "--out", str(tmp_path / "m.npz"), "--meta", str(meta)]) == 0
        doc = json.loads(meta.read_text(), parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        _, art = build_mkl_qcqp(MklSpec(n_tr=6, n_t=2, seed=19))
        assert doc["n_tr"] == 6 and doc["n_t"] == 2 and doc["seed"] == 19
        assert doc["train_indices"] == art.train_indices.tolist()
        assert doc["test_indices"] == art.test_indices.tolist()


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((6, 3))
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        csv = tmp_path / "data.csv"
        csv.write_text("\n".join(f"{int(yi)}," + ",".join(repr(float(v)) for v in row) for yi, row in zip(y, X)) + "\n")
        X2, y2 = load_csv_dataset(csv)
        np.testing.assert_array_equal(y2, y)
        np.testing.assert_allclose(X2, X, rtol=1e-15)

    def test_bad_label_rejected(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("2,0.5,0.5\n")
        with pytest.raises(ValueError, match="labels"):
            load_csv_dataset(csv)

    def test_unparsable_cell_names_the_file(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("1,0.5\n-1,abc\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(csv))}: could not convert string 'abc'"):
            load_csv_dataset(csv)

    def test_empty_file_rejected_without_warning(self, tmp_path):
        csv = tmp_path / "empty.csv"
        csv.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(str(csv))}: no data rows"):
                load_csv_dataset(csv)

    def test_non_finite_feature_rejected(self, tmp_path):
        csv = tmp_path / "bad.csv"
        csv.write_text("1,0.5,0.5\n-1,nan,0.5\n")
        with pytest.raises(ValueError, match="data row 2 has a non-finite feature"):
            load_csv_dataset(csv)
