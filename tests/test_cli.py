import json

import numpy as np
import pytest

from grngc import cli
from grngc.cli import DEFAULT_CONFIG, CliError, load_config, main
from grngc.datagen import TimeSeries

FAST_VAR = [
    "--set", "data.source=var",
    "--set", "data.p=4",
    "--set", "data.T=200",
    "--set", "train.lag=2",
    "--set", "train.epochs=3",
    "--set", "train.hidden=[8]",
]


class TestConfig:
    def test_defaults_copied(self):
        cfg = load_config(None, [])
        assert cfg == DEFAULT_CONFIG
        cfg["train"]["lam"] = 99
        assert DEFAULT_CONFIG["train"]["lam"] != 99

    def test_set_overrides_parse_json(self):
        cfg = load_config(None, ["train.lam=0.01", "run.seeds=[4,5]",
                                 "data.source=var"])
        assert cfg["train"]["lam"] == 0.01
        assert cfg["run"]["seeds"] == [4, 5]
        assert cfg["data"]["source"] == "var"

    def test_config_file_merge(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"epochs": 7}}))
        cfg = load_config(str(path), ["train.lag=3"])
        assert cfg["train"]["epochs"] == 7
        assert cfg["train"]["lag"] == 3
        assert cfg["train"]["lam"] == DEFAULT_CONFIG["train"]["lam"]

    def test_bad_set_item(self):
        with pytest.raises(CliError):
            load_config(None, ["no-equals-sign"])

    def test_set_section_as_object(self):
        cfg = load_config(None, ['train={"lag": 3, "lam": 0.5}'])
        assert cfg["train"]["lag"] == 3 and cfg["train"]["lam"] == 0.5
        assert cfg["train"]["lr"] == DEFAULT_CONFIG["train"]["lr"]

    @pytest.mark.parametrize("item,key", [
        ("data.sourc=var", "data.sourc"), ("train.lamda=0.5", "train.lamda"),
        ("train.hidden.x=1", "train.hidden.x"), ("model.kind=kan", "model.kind"),
        ("train=5", "train"), ('train={"lamda": 1}', "train.lamda"),
    ])
    def test_unknown_set_key_named_error(self, tmp_path, capsys, item, key):
        out = tmp_path / "x"
        rc = main(["infer", "--out", str(out)] + FAST_VAR + ["--set", item])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("text,message", [
        (json.dumps({"train": {"lamda": 0.5}}), "'train.lamda'"),
        (json.dumps({"train": {"hidden": {"x": 1}}}), "'train.hidden.x'"),
        (json.dumps({"dat": {"p": 3}}), "'dat.p'"),
        ('{"train": ', "invalid JSON"),
        ("[1, 2]", "JSON object"),
    ])
    def test_bad_config_file_named_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "x"
        rc = main(["infer", "--out", str(out), "--config", str(path)] + FAST_VAR)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()


    @pytest.mark.parametrize("item,field", [
        ("train.hidden=[0]", "hidden"), ("train.degree=0", "degree"),
        ("train.lr=-1", "lr"), ("train.grid_size=1", "grid_size"),
        ("train.backbone=lstm", "backbone"),
    ])
    def test_bad_train_config_named_error(self, tmp_path, capsys, item, field):
        out = tmp_path / "x"
        rc = main(["infer", "--out", str(out)] + FAST_VAR + ["--set", item])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("item,expected", [
        ("train.hidden=128", "list of int"), ("train.epochs=1.5", "int"),
        ('train.lag="3"', "int"), ('data.p="a"', "int"), ("run.seeds=3", "list of int"),
    ])
    def test_wrong_type_named_error(self, tmp_path, capsys, item, expected):
        out = tmp_path / "x"
        rc = main(["run", "--out", str(out)] + FAST_VAR + ["--set", item])
        assert rc == 1
        err = capsys.readouterr().err
        key = item.split("=")[0]
        assert err.startswith("error: ") and repr(key) in err and expected in err
        assert not out.exists()

    @pytest.mark.parametrize("item,message", [
        ("eval.mode=diag", "'eval.mode' must be one of full, off_diagonal"),
        ("data.source=sine", "'data.source' must be one of lorenz96, var, got"),
        ("data.p=3", "p >= 4"),
    ], ids=["eval.mode", "data.source", "data.p"])
    def test_bad_value_writes_nothing(self, tmp_path, capsys, item, message):
        out = tmp_path / "x"
        rc = main(["run", "--out", str(out), "--set", "run.seeds=[0]", "--set", "data.T=60",
                   "--set", "train.epochs=1", "--set", "train.hidden=[4]", "--set", item])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "infer", "run"])
    def test_truth_without_series_writes_nothing(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        rc = main([command, "--out", str(out), "--set", "data.truth=/nonexistent/truth.csv",
                   "--set", "data.p=5", "--set", "data.T=20"])
        assert rc == 1
        assert "data.truth requires data.series" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["simulate", "--set", "data.seed=-1"], "seed must be >= 0, got -1"),
        (["infer", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--set", "run.seeds=[0,-1]"], "seed must be >= 0, got -1"),
        (["simulate", "--set", "data.source=var", "--set", "data.p=0"], "VAR needs p >= 1, got 0"),
        (["simulate", "--set", "data.source=var", "--set", "data.T=1"], "VAR(1) needs T > 1"),
        (["simulate", "--set", "data.burn_in=-1"], "burn_in >= 0"),
        (["simulate", "--set", "data.dt=1e308"], "dt=1e+308 overflows the burn-in sub-step"),
        (["simulate", "--set", "data.source=var", "--set", "data.noise_sigma=-1"],
         "VAR needs noise_sigma >= 0, got -1"),
    ], ids=["simulate --seed", "data.seed", "infer --seed", "run.seeds", "var data.p",
            "var data.T", "data.burn_in", "data.dt", "var data.noise_sigma"])
    def test_bad_seed_or_size_writes_nothing(self, tmp_path, capsys, args, message):
        out = tmp_path / "x"
        # a case's own --set comes last, so it wins over these
        rc = main(args[:1] + ["--out", str(out), "--set", "data.T=60",
                              "--set", "train.epochs=1"] + args[1:])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("key,raw", [
        ("data.dt", "NaN"), ("data.dt", "Infinity"), ("data.forcing", "-Infinity"),
        ("data.radius", "NaN"), ("data.density", "NaN"), ("data.noise_sigma", "Infinity"),
        ("train.lam", "NaN"), ("run.lams", "[0.001, NaN]"),
    ])
    @pytest.mark.parametrize("via", ["set", "config"])
    def test_non_finite_number_named_error(self, tmp_path, capsys, key, raw, via):
        if via == "set":
            args = ["--set", f"{key}={raw}"]
        else:
            section, name = key.split(".")
            (tmp_path / "cfg.json").write_text(f'{{"{section}": {{"{name}": {raw}}}}}')
            args = ["--config", str(tmp_path / "cfg.json")]
        out = tmp_path / "x"
        rc = main(["simulate", "--out", str(out), "--set", "data.source=var"] + args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(key) in err and "finite float" in err
        assert not out.exists()

    def test_int_accepted_for_float(self):
        assert load_config(None, ["train.lam=1", "run.lams=[0,1]"])["train"]["lam"] == 1


class TestSimulate:
    def test_lorenz_outputs(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--out", str(out),
                   "--set", "data.p=6", "--set", "data.T=50"])
        assert rc == 0
        series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
        truth = np.loadtxt(out / "truth.csv", delimiter=",", ndmin=2)
        assert series.shape == (50, 6)
        assert truth.shape == (6, 6)
        assert np.all(truth.sum(axis=1) == 4)

    def test_var_outputs(self, tmp_path):
        out = tmp_path / "sim"
        rc = main(["simulate", "--out", str(out), "--set", "data.source=var",
                   "--set", "data.p=4", "--set", "data.T=30"])
        assert rc == 0
        series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
        assert series.shape == (30, 4)

    def test_seed_changes_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--set", "data.p=5", "--set", "data.T=20"]
        main(args + ["--out", str(a), "--seed", "0"])
        main(args + ["--out", str(b), "--seed", "1"])
        assert (a / "series.csv").read_text() != (b / "series.csv").read_text()

    def test_unknown_source_fails(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "x"),
                   "--set", "data.source=sine"])
        assert rc != 0


class TestInfer:
    def test_outputs_written(self, tmp_path):
        out = tmp_path / "inf"
        rc = main(["infer", "--out", str(out)] + FAST_VAR)
        assert rc == 0
        gc = np.loadtxt(out / "gc_matrix.csv", delimiter=",", ndmin=2)
        assert gc.shape == (4, 4)
        assert np.all(gc >= 0) and np.all(np.isfinite(gc))
        report = json.loads((out / "train_report.json").read_text())
        assert report["epochs_run"] == 3
        assert len(report["pred_losses"]) == 3

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["infer", "--out", str(a)] + FAST_VAR)
        main(["infer", "--out", str(b)] + FAST_VAR)
        assert (a / "gc_matrix.csv").read_bytes() == (b / "gc_matrix.csv").read_bytes()

    def test_csv_input(self, tmp_path):
        sim = tmp_path / "sim"
        main(["simulate", "--out", str(sim), "--set", "data.source=var",
              "--set", "data.p=3", "--set", "data.T=120"])
        out = tmp_path / "inf"
        rc = main(["infer", "--out", str(out),
                   "--set", f"data.series={sim / 'series.csv'}",
                   "--set", "train.lag=2", "--set", "train.epochs=2",
                   "--set", "train.hidden=[8]"])
        assert rc == 0
        assert np.loadtxt(out / "gc_matrix.csv", delimiter=",", ndmin=2).shape == (3, 3)

    def test_empty_delimiter_named_error(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        main(["simulate", "--out", str(sim), "--set", "data.source=var",
              "--set", "data.p=3", "--set", "data.T=120"])
        out = tmp_path / "inf"
        rc = main(["infer", "--out", str(out), "--set", f"data.series={sim / 'series.csv'}",
                   "--set", 'data.delimiter=""'])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_csv_without_series_named_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["infer", "--out", str(out), "--set", "data.source=csv"])
        assert rc == 1
        assert "'data.source' must be one of lorenz96, var, got 'csv'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_series_cell_named_error(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1,2\n3,nan\n5,6\n")
        out = tmp_path / "x"
        rc = main(["infer", "--out", str(out), "--set", f"data.series={path}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: non-finite cell at row 2, column 1: 'nan'\n"
        assert not out.exists()

    def test_missing_csv_names_path(self, tmp_path, capsys):
        rc = main(["infer", "--out", str(tmp_path / "x"),
                   "--set", "data.series=/nonexistent/file.csv"])
        assert rc != 0
        assert "/nonexistent/file.csv" in capsys.readouterr().err


class TestCsv:
    """Series files as infer and run read them (data.series) and write them."""

    def load(self, path, has_header=True):
        cfg = load_config(None, [f"data.series={path}",
                                 f"data.has_header={json.dumps(has_header)}"])
        return cli.make_data(cfg, 0)[0]

    def test_basic_parse(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n3,4\n")
        series = self.load(path)
        assert series.names == ["a", "b"]
        assert np.array_equal(series.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_cites_index(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(CliError, match="row 1"):
            self.load(path, has_header=False)

    def test_header_wider_than_rows(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b,c\n1,2\n3,4\n")
        with pytest.raises(CliError, match="row 1 has 2 columns, expected 3"):
            self.load(path)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(CliError, match="row 1, column 1"):
            self.load(path, has_header=False)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("")
        with pytest.raises(CliError, match="empty"):
            self.load(path)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        series = TimeSeries(rng.normal(size=(20, 3)) * 1e3, names=["u", "v", "w"])
        cli.write_outputs(tmp_path, series)
        loaded = self.load(tmp_path / "series.csv")
        assert loaded.names == series.names
        assert np.array_equal(loaded.data, series.data)


class TestEval:
    def write(self, path, matrix):
        with open(path, "w") as fh:
            for row in np.atleast_2d(matrix):
                fh.write(",".join(str(v) for v in row) + "\n")

    def test_perfect_scores(self, tmp_path, capsys):
        truth = np.array([[1, 0, 1], [0, 1, 0], [1, 1, 0]])
        self.write(tmp_path / "gc.csv", truth.astype(float))
        self.write(tmp_path / "truth.csv", truth)
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv")])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["auroc"] == 1.0 and out["auprc"] == 1.0

    def test_zero_matrix_off_diagonal_chance(self, tmp_path, capsys):
        truth = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        self.write(tmp_path / "gc.csv", np.zeros((3, 3)))
        self.write(tmp_path / "truth.csv", truth)
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv"),
                   "--mode", "off_diagonal"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["auroc"] == 0.5

    def test_metrics_file_written(self, tmp_path):
        truth = np.eye(2)
        self.write(tmp_path / "gc.csv", truth)
        self.write(tmp_path / "truth.csv", truth)
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv"),
                   "--out", str(tmp_path / "m")])
        assert rc == 0
        assert json.loads((tmp_path / "m" / "metrics.json").read_text())["auroc"] == 1.0

    def test_shape_mismatch_fails(self, tmp_path, capsys):
        self.write(tmp_path / "gc.csv", np.zeros((3, 3)))
        self.write(tmp_path / "truth.csv", np.eye(2))
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv")])
        assert rc != 0
        assert "mismatch" in capsys.readouterr().err

    def test_truth_delimiter(self, tmp_path, capsys):
        truth = np.array([[1, 0], [0, 1]])
        self.write(tmp_path / "gc.csv", truth.astype(float))
        (tmp_path / "truth.csv").write_text("1;0\n0;1\n")
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv"),
                   "--delimiter", ";"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["auroc"] == 1.0

    @pytest.mark.parametrize("which", ["gc", "truth"])
    def test_unparsable_file_named_error(self, tmp_path, capsys, which):
        self.write(tmp_path / "gc.csv", np.eye(2))
        self.write(tmp_path / "truth.csv", np.eye(2))
        (tmp_path / f"{which}.csv").write_text("1;0\n0;1\n")
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{which}.csv" in err

    def test_empty_delimiter_named_error(self, tmp_path, capsys):
        self.write(tmp_path / "gc.csv", np.eye(2))
        self.write(tmp_path / "truth.csv", np.eye(2))
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv"),
                   "--delimiter", "", "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "truth.csv: empty delimiter" in err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("which", ["gc", "truth"])
    def test_non_finite_matrix_named_error(self, tmp_path, capsys, which, value):
        self.write(tmp_path / "gc.csv", np.eye(2))
        self.write(tmp_path / "truth.csv", np.eye(2))
        (tmp_path / f"{which}.csv").write_text(f"1,0\n{value},1\n")
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv"),
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{which}.csv: non-finite cell at row 1, column 0: '{value}'" in err
        assert not (tmp_path / "m").exists()

    def test_negative_score_named_error(self, tmp_path, capsys):
        self.write(tmp_path / "gc.csv", np.array([[1.0, -1.0], [0.0, 1.0]]))
        self.write(tmp_path / "truth.csv", np.eye(2))
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv"),
                   "--out", str(tmp_path / "m")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'gc.csv'}: scores must be non-negative\n"
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("which", ["gc", "truth"])
    def test_non_square_matrix_named_error(self, tmp_path, capsys, which):
        self.write(tmp_path / "gc.csv", np.eye(2))
        self.write(tmp_path / "truth.csv", np.eye(2))
        self.write(tmp_path / f"{which}.csv", np.ones((2, 3)))
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv")])
        assert rc == 1
        assert f"{which}.csv: matrix must be square, got (2, 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("truth_size,message", [(1, "AUROC needs both classes"),
                                                    (2, "shape mismatch")],
                             ids=["1x1 truth", "2x2 truth"])
    def test_one_by_one_scores_read_as_matrix(self, tmp_path, capsys, truth_size, message):
        self.write(tmp_path / "gc.csv", np.ones((1, 1)))
        self.write(tmp_path / "truth.csv", np.eye(truth_size))
        rc = main(["eval", str(tmp_path / "gc.csv"), str(tmp_path / "truth.csv")])
        assert rc == 1
        assert message in capsys.readouterr().err

    def test_missing_file_fails(self, tmp_path, capsys):
        rc = main(["eval", str(tmp_path / "none.csv"), str(tmp_path / "none.csv")])
        assert rc != 0
        assert "none.csv" in capsys.readouterr().err


class TestRun:
    def test_sweep_outputs(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--set", "run.seeds=[0,1]"] + FAST_VAR)
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["runs"]) == 2
        for seed in (0, 1):
            sub = out / f"lam0.001_seed{seed}"
            for name in ("series.csv", "truth.csv", "gc_matrix.csv",
                         "train_report.json", "metrics.json"):
                assert (sub / name).exists()
        stats = summary["lam_0.001"]
        assert 0.0 <= stats["auroc_mean"] <= 1.0

    def test_lambda_sweep_subdirs(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--set", "run.seeds=[0]",
                   "--set", "run.lams=[0.0,0.001]"] + FAST_VAR)
        assert rc == 0
        assert (out / "lam0.0_seed0").is_dir()
        assert (out / "lam0.001_seed0").is_dir()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["run", "--set", "run.seeds=[0]"] + FAST_VAR
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert (a / "lam0.001_seed0" / "gc_matrix.csv").read_bytes() == \
               (b / "lam0.001_seed0" / "gc_matrix.csv").read_bytes()

    def test_seed_option_runs_that_seed_alone(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--seed", "5", "--set", "run.seeds=[0,1]"]
                  + FAST_VAR)
        assert rc == 0
        assert sorted(p.name for p in out.iterdir()) == ["lam0.001_seed5", "summary.json"]
        summary = json.loads((out / "summary.json").read_text())
        assert [r["seed"] for r in summary["runs"]] == [5]

    def test_bad_lambda_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--set", "run.seeds=[0]",
                   "--set", "run.lams=[0.001,-1]"] + FAST_VAR)
        assert rc == 1
        assert "lambda must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["run.seeds", "run.lams"])
    def test_empty_sweep_named_error(self, tmp_path, capsys, key):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--set", f"{key}=[]"] + FAST_VAR)
        assert rc == 1
        assert f"{key} must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("item", ["run.seeds=[0,1,0]", "run.lams=[1,0.001,1.0]"])
    def test_repeated_sweep_value_named_error(self, tmp_path, capsys, item):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--set", item] + FAST_VAR)
        assert rc == 1
        assert f"{item.split('=')[0]} repeats a value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.fixture
    def var3(self, tmp_path):
        """Directory with series.csv and truth.csv of a simulated 3-series VAR."""
        sim = tmp_path / "sim"
        main(["simulate", "--out", str(sim), "--set", "data.source=var",
              "--set", "data.p=3", "--set", "data.T=120"])
        return sim

    def run_on(self, out, *items):
        return main(["run", "--out", str(out), "--set", "run.seeds=[0]",
                     "--set", "train.lag=2", "--set", "train.epochs=1",
                     "--set", "train.hidden=[8]"] + [a for i in items for a in ("--set", i)])

    def test_series_file_read_whatever_the_source(self, tmp_path, var3):
        out = tmp_path / "run"
        rc = self.run_on(out, f"data.series={var3 / 'series.csv'}",
                         f"data.truth={var3 / 'truth.csv'}")
        assert rc == 0
        sub = out / "lam0.001_seed0"
        assert (sub / "series.csv").read_text() == (var3 / "series.csv").read_text()
        assert (sub / "truth.csv").read_text() == (var3 / "truth.csv").read_text()

    def test_truth_of_other_size_writes_nothing(self, tmp_path, capsys, var3):
        (tmp_path / "truth4.csv").write_text("1,0,0,0\n0,1,0,0\n0,0,1,0\n0,0,0,1\n")
        out = tmp_path / "run"
        rc = self.run_on(out, f"data.series={var3 / 'series.csv'}",
                         f"data.truth={tmp_path / 'truth4.csv'}")
        assert rc == 1
        assert "(4, 4) truth for 3 series" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_without_truth_fails_before_training(self, tmp_path, capsys, var3):
        out = tmp_path / "run"
        rc = self.run_on(out, f"data.series={var3 / 'series.csv'}")
        assert rc == 1
        assert "ground truth" in capsys.readouterr().err
        assert not out.exists()

    def test_series_without_truth_fails_whatever_the_source(self, tmp_path, capsys, var3):
        out = tmp_path / "run"
        rc = self.run_on(out, "data.source=lorenz96", f"data.series={var3 / 'series.csv'}")
        assert rc == 1
        assert "ground truth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["infer", "run"])
    def test_non_finite_truth_file_named_error(self, tmp_path, capsys, var3, command):
        (tmp_path / "truth.csv").write_text("1,0,0\n0,nan,0\n0,0,1\n")
        out = tmp_path / "out"
        rc = main([command, "--out", str(out), "--set", f"data.series={var3 / 'series.csv'}",
                   "--set", f"data.truth={tmp_path / 'truth.csv'}", "--set", "train.epochs=1"])
        assert rc == 1
        assert "truth.csv: non-finite cell at row 1, column 1: 'nan'" in capsys.readouterr().err
        assert not out.exists()

    def test_too_short_series_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["run", "--out", str(out), "--set", "data.T=12", "--set", "run.seeds=[0]"])
        assert rc == 1
        assert "need T > lag + 10" in capsys.readouterr().err
        assert not out.exists()

    def test_constant_column_writes_nothing(self, tmp_path, capsys, var3):
        series = np.loadtxt(var3 / "series.csv", delimiter=",", skiprows=1)
        series[:, 1] = 2.5
        np.savetxt(tmp_path / "series.csv", series, delimiter=",", header="a,b,c", comments="")
        out = tmp_path / "run"
        rc = self.run_on(out, f"data.series={tmp_path / 'series.csv'}",
                         f"data.truth={var3 / 'truth.csv'}")
        assert rc == 1
        assert f"{tmp_path / 'series.csv'}: zero-variance column 1" in capsys.readouterr().err
        assert not out.exists()

    def test_one_row_series_named_error(self, tmp_path, capsys):
        (tmp_path / "one.csv").write_text("a,b\n0.5,1.5\n")
        out = tmp_path / "out"
        rc = main(["infer", "--out", str(out), "--set", f"data.series={tmp_path / 'one.csv'}"])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {tmp_path / 'one.csv'}: "
                                           "need at least 2 data rows, got 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("items", [
        ["data.series=SERIES", "data.truth=ZERO_TRUTH"],
        ["data.source=var", "data.p=1", "data.T=100"],
        ["data.source=var", "data.p=2", "data.T=100", "data.density=0",
         "eval.mode=off_diagonal"],
    ], ids=["all-zero data.truth", "var p=1", "var p=2 density=0 off_diagonal"])
    def test_one_class_truth_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                   var3, items):
        (tmp_path / "zero.csv").write_text("0,0,0\n0,0,0\n0,0,0\n")
        items = [i.replace("SERIES", str(var3 / "series.csv"))
                  .replace("ZERO_TRUTH", str(tmp_path / "zero.csv")) for i in items]
        monkeypatch.setattr(cli, "train", lambda *a: pytest.fail("trained a one-class truth"))
        out = tmp_path / "run"
        rc = self.run_on(out, *items)
        assert rc == 1
        assert "error: AUROC needs both classes" in capsys.readouterr().err
        assert not out.exists()
