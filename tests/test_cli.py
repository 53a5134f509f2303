"""The command-line entry point end to end: a tiny gen -> preprocess ->
train -> eval -> export-weights chain reproduces every artifact checksum
under the same seed, errors (an unknown ``FPNN_LOG`` level among them)
exit 1 with one line, the manifest clock covers the command's work, the
manifest records the numeric environment, every parsed argument, the
configs each command built and its input files, a config file with an
unknown key or a value of the wrong kind and arguments out of range are
rejected before any work (a value exactly when a checkpoint's config
rejects it, and a whole float builds what its int does), preprocess,
sweep-noi, ablate and hyperopt split a fleet with the same sub-seed,
sweep-noi and ablate write one CSV row per cell with the cell seeds in the
manifest, a failed cell's exception type in its row, and build each cell's
model from the command's model options, and hyperopt writes its trials and
a best config that train accepts, reproducibly. Importing the package and
its CLI loads no scipy module."""

import csv
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fpnn
from fpnn import cli, training
from fpnn import io as tio
from fpnn import model as M
from fpnn.errors import CheckpointError, TrainingError


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def manifest(out):
    return json.loads((out / cli.MANIFEST_FILENAME).read_text())


COMMANDS = {"fleet": "gen", "archive": "preprocess", "train": "train", "eval": "eval",
            "weights": "export-weights"}  # out dir -> the command writing it


def chain_argvs(root, seed=5):
    """The tiny chain's command lines, each writing ``root / <out dir>``."""
    dirs = {name: root / name for name in COMMANDS}
    checkpoint = dirs["train"] / "checkpoint.fpt"
    argvs = {
        "fleet": ["gen", "--n", 6, "--life-min", 200, "--life-max", 700],
        "archive": ["preprocess", "--data", dirs["fleet"], "--cycles", 10, "--grid", 8],
        "train": ["train", "--data", dirs["archive"], "--epochs", 2, "--batch-size", 4],
        "eval": ["eval", "--checkpoint", checkpoint, "--data", dirs["archive"]],
        "weights": ["export-weights", "--checkpoint", checkpoint],
    }
    return {name: [str(a) for a in [*argv, "--seed", seed, "--out", dirs[name]]]
            for name, argv in argvs.items()}


def chain(root, seed=5):
    """Run the tiny chain under ``root``; returns each command's out dir."""
    for argv in chain_argvs(root, seed).values():
        run(*argv)
    return {name: root / name for name in COMMANDS}


class TestNumpyOnly:
    def test_importing_the_package_and_cli_loads_no_scipy(self):
        """A fresh interpreter imports ``fpnn`` and ``fpnn.cli`` on numpy alone."""
        code = ("import sys, fpnn, fpnn.cli; "
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        src = Path(fpnn.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.stdout == "[]\n"


class TestEndToEnd:
    def test_same_seed_reproduces_every_artifact(self, tmp_path):
        first = chain(tmp_path / "a")
        second = chain(tmp_path / "b")
        for name, out in first.items():
            doc = manifest(out)
            assert doc["command"] == COMMANDS[name]
            assert doc["outputs"], name
            assert doc["outputs"] == manifest(second[name])["outputs"], name
        assert "checkpoint.fpt" in manifest(first["train"])["outputs"]
        for out in first.values():
            env = manifest(out)["environment"]
            assert set(env) == {"python", "numpy", "blas", "blas_threads", "stream_threads"}
            assert set(env["blas_threads"]) == set(fpnn.BLAS_THREAD_VARS)
            assert env["numpy"] == np.__version__ and env["stream_threads"] == 2

    def test_manifest_records_arguments_built_config_and_inputs(self, tmp_path):
        argvs = chain_argvs(tmp_path)
        for argv in argvs.values():
            run(*argv)
        unrecorded = {"command", "func", "out", "seed", "checkpoint", "data", "config"}
        for name, argv in argvs.items():
            parsed = vars(cli.build_parser().parse_args(argv))
            config = manifest(tmp_path / name)["config"]
            assert set(parsed) - unrecorded <= set(config), name
            assert all(config[k] == v for k, v in parsed.items()
                       if k not in unrecorded and v is not None), name
        checkpoint = tmp_path / "train" / "checkpoint.fpt"
        archive = tmp_path / "archive"
        assert [manifest(tmp_path / name)["inputs"] for name in COMMANDS] == [
            [], [str(tmp_path / "fleet")], [str(archive)], [str(checkpoint), str(archive)],
            [str(checkpoint)]]
        built = json.loads(json.dumps(training.load_checkpoint(checkpoint).config.to_dict()))
        config = manifest(tmp_path / "train")["config"]
        for key in ("head_hidden", "detach", "grid_side"):
            assert config[key] == built[key], key
        assert "sample_depth" not in config
        assert config["epochs"] == 2 and config["eval_split"] == "test"
        assert "seed" not in config

    def test_nonfinite_fleet_value_fails_preprocess(self, tmp_path, capsys):
        """A NaN voltage cell fails ``preprocess`` with one line naming the
        battery, the cycle and the series, and writes no archive."""
        fleet = tmp_path / "fleet"
        run("gen", "--n", 4, "--seed", 5, "--out", fleet)
        path = sorted(fleet.glob("*/cycles.csv"))[1]
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[2] = "nan"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["preprocess", "--data", str(fleet), "--cycles", "10", "--grid", "8",
                         "--out", str(tmp_path / "archive")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: DataValidationError: battery '{path.parent.name}' "
                              "cycle 1: voltage has non-finite values")
        assert not (tmp_path / "archive" / "manifest.json").exists()

    def test_eval_grid_mismatch_names_both_files(self, tmp_path, capsys):
        """A grid-8 checkpoint on a grid-16 archive fails before predicting,
        with one line naming both paths and both grid sides."""
        fleet, archive = tmp_path / "fleet", tmp_path / "archive"
        run("gen", "--n", 4, "--seed", 5, "--out", fleet)
        run("preprocess", "--data", fleet, "--cycles", 10, "--grid", 16, "--seed", 5,
            "--out", archive)
        checkpoint = tmp_path / "grid8.fpt"
        training.save_checkpoint(M.build_model(M.FpnnConfig(grid_side=8)), checkpoint)
        capsys.readouterr()
        code = cli.main(["eval", "--checkpoint", str(checkpoint), "--data", str(archive),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: ValueError: checkpoint {checkpoint} has grid_side 8, "
                       f"but archive {archive} has grid_side 16\n")

    def test_unknown_log_level_fails_before_the_command(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FPNN_LOG", "warn")
        out = tmp_path / "fleet"
        assert cli.main(["gen", "--n", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: ValueError: FPNN_LOG='warn' is not one of "
                                           "error, warning, info, debug\n")
        assert not out.exists()

    def test_missing_checkpoint_is_one_error_line(self, tmp_path, capsys):
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "none.fpt"),
                         "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


BAD_CONFIGS = [  # (test id suffix, config file, the key its error names)
    ("", {"learning_rat": 0.5, "alpha": 0.2}, "learning_rat"),
    ("-float-epochs", {"epochs": 2.7}, "epochs"),
    ("-string-epochs", {"epochs": "abc"}, "epochs"),
    ("-bool-batch_size", {"batch_size": True}, "batch_size"),
    ("-string-learning_rate", {"learning_rate": "0.1"}, "learning_rate"),
    ("-empty-head_hidden", {"head_hidden": []}, "head_hidden"),
    ("-zero-head_hidden", {"head_hidden": [8, 0]}, "head_hidden"),
    ("-unknown-detach", {"detach": {"residul": True}}, "detach"),
    ("-int-detach", {"detach": {"residual": 1}}, "detach"),
]


# Rejected alike by a checkpoint's config and a config file (test id suffix,
# config, the key its error names): the model-field rows of BAD_CONFIGS, among
# them "-int-detach", {"detach": {"residual": 1}}, then values of the wrong kind
# and a config that is not an object.
KINDS_AGREE = [row for row in BAD_CONFIGS if row[2] in ("head_hidden", "detach")] + [
    ("-fraction", {"noi": 1.7}, "noi"),
    ("-fraction", {"grid_side": 8.9}, "grid_side"),
    ("-fraction", {"head_hidden": [8.5]}, "head_hidden"),
    ("-string", {"head_hidden": "64"}, "head_hidden"),
    ("-bool", {"noi": True}, "noi"),
    ("-not-an-object", 5, "config"),
]


class TestConfigFile:
    @pytest.mark.parametrize("command,doc,key", [
        pytest.param(command, doc, key, id=command + suffix)
        for command in ("train", "sweep-noi", "ablate") for suffix, doc, key in BAD_CONFIGS])
    def test_unknown_key_is_one_error_line_naming_it(self, tmp_path, capsys, command, doc,
                                                     key):
        """An unknown key or a value of the wrong type fails before any data
        is read (the data path does not exist)."""
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = cli.main([command, "--data", str(tmp_path / "none"), "--config", str(config_file),
                         "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ValueError: ")
        assert key in err and str(config_file) in err
        assert not (out / cli.MANIFEST_FILENAME).exists()

    @pytest.mark.parametrize("command,doc,text", [
        pytest.param("sweep-noi", {"noi": 2},
                     "sweep-noi sets noi per cell, so a config file may not set it",
                     id="sweep-noi-noi"),
        pytest.param("ablate", {"detach": {"residual": True}},
                     "ablate sets detach per cell, so a config file may not set it",
                     id="ablate-detach"),
        pytest.param("train", {"epochs": 0}, "epochs and learning_rate must be positive",
                     id="train-epochs-0"),
        pytest.param("train", {"noi": 9}, "noi must lie in [0, 8], got 9", id="train-noi-9"),
        pytest.param("sweep-noi", {"alpha": 1.5}, "alpha must lie in (0, 1)",
                     id="sweep-noi-alpha-1.5"),
        pytest.param("ablate", {"batch_size": 1},
                     "batch_size must be >= 2 (batchnorm needs real batches)",
                     id="ablate-batch_size-1"),
    ])
    def test_per_cell_key_or_value_out_of_range_fails_before_data(self, tmp_path, capsys,
                                                                   command, doc, text):
        """The config error is reported, not the data path that does not exist."""
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(doc))
        code = cli.main([command, "--data", str(tmp_path / "none"), "--config", str(config_file),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: {config_file}: {text}\n"

    @pytest.mark.parametrize("command", ["train", "sweep-noi", "ablate"])
    @pytest.mark.parametrize("text,message", [
        pytest.param("[]", "must hold a JSON object, got list", id="list"),
        pytest.param("{bad", "not valid JSON: Expecting property name enclosed in double "
                     "quotes: line 1 column 2 (char 1)", id="bad-json"),
    ])
    def test_config_file_not_a_json_object_fails_before_data(self, tmp_path, capsys, command,
                                                             text, message):
        config_file = tmp_path / "config.json"
        config_file.write_text(text)
        code = cli.main([command, "--data", str(tmp_path / "none"), "--config", str(config_file),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: ValueError: {config_file}: {message}\n"

    @pytest.mark.parametrize("doc,key", [pytest.param(doc, key, id=key + suffix)
                                         for suffix, doc, key in KINDS_AGREE])
    def test_checkpoint_config_and_config_file_reject_alike(self, tmp_path, capsys, doc, key):
        """The same value fails a checkpoint's config with a CheckpointError
        naming the checkpoint and the key, and a config file with the one
        error line naming the file and the key."""
        checkpoint = tmp_path / "model.fpt"
        training.save_checkpoint(M.build_model(M.FpnnConfig(grid_side=8, head_hidden=(8,))),
                                 checkpoint)
        meta, tensors = tio.read_tensors(checkpoint)
        meta["config"] = {**meta["config"], **doc} if isinstance(doc, dict) else doc
        tio.write_tensors(checkpoint, tensors, meta)
        with pytest.raises(CheckpointError) as caught:
            training.load_checkpoint(checkpoint)
        where, _, message = str(caught.value).partition(": ")
        assert where == str(checkpoint) and key in message

        config_file = tmp_path / "settings.json"
        config_file.write_text(json.dumps(doc))
        code = cli.main(["train", "--data", str(tmp_path / "none"), "--config", str(config_file),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        head = f"error: ValueError: {config_file}: "
        assert err.startswith(head)
        assert key in err[len(head):] or not isinstance(doc, dict)  # 5 has no key to name

    def test_whole_float_builds_the_configs_of_its_int(self, tmp_path):
        """``"epochs": 2.0`` in a config file trains as ``2`` does: the
        manifest's config and every artifact are the same."""
        fleet, archive = tmp_path / "fleet", tmp_path / "archive"
        run("gen", "--n", 6, "--seed", 5, "--life-min", 200, "--life-max", 700, "--out", fleet)
        run("preprocess", "--data", fleet, "--cycles", 10, "--grid", 8, "--out", archive)
        docs = []
        for name, epochs in (("int", 2), ("float", 2.0)):
            (tmp_path / f"{name}.json").write_text(json.dumps({"epochs": epochs}))
            run("train", "--data", archive, "--config", tmp_path / f"{name}.json",
                "--batch-size", 4, "--out", tmp_path / name)
            docs.append(manifest(tmp_path / name))
        assert docs[0]["config"] == docs[1]["config"] and docs[0]["config"]["epochs"] == 2
        assert docs[0]["outputs"] == docs[1]["outputs"]

    def test_inverted_life_range_is_one_error_line_naming_it(self, tmp_path, capsys):
        code = cli.main(["gen", "--n", "2", "--life-min", "500", "--life-max", "100",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ValueError: life range (500, 100) must satisfy 1 <= low <= high\n")

    def test_flag_out_of_range_fails_before_data(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "none"), "--epochs", "0",
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: ValueError: epochs and learning_rate must be positive\n")


class TestManifestClock:
    def test_wall_clock_covers_the_command(self, tmp_path, monkeypatch):
        dirs = chain(tmp_path)
        real_train = cli.train

        def slow_train(*args, **kwargs):
            time.sleep(0.5)
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", slow_train)
        out = tmp_path / "slow"
        run("train", "--data", dirs["archive"], "--epochs", 1, "--batch-size", 4, "--out", out)
        assert manifest(out)["wall_clock_s"] >= 0.5


def csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


SWEEP_ARGS = ["sweep-noi", "--grid", "8", "--epochs", "1", "--batch-size", "4"]


class TestSweepCommands:
    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli") / "fleet"
        run("gen", "--n", 6, "--seed", 4, "--life-min", 200, "--life-max", 700, "--out", out)
        return out

    def test_sweep_noi(self, fleet, tmp_path):
        run("sweep-noi", "--data", fleet, "--cycles", "10,20", "--noi", "0-1", "--grid", 8,
            "--epochs", 1, "--batch-size", 4, "--seed", 9, "--out", tmp_path)
        rows = csv_rows(tmp_path / "sweep.csv")
        assert rows[0] == cli.SWEEP_HEADER
        assert [r[:2] for r in rows[1:]] == [["10", "0"], ["10", "1"], ["20", "0"], ["20", "1"]]
        assert all(r[2] != "NaN" for r in rows[1:])
        config = manifest(tmp_path)["config"]
        assert config["cell_seeds"] == [9, 1009, 2009, 3009]
        assert config["nois"] == [0, 1] and config["jobs"] == 1 and "noi" not in config

    def test_ablate(self, fleet, tmp_path):
        run("ablate", "--data", fleet, "--cycles", 10, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--seed", 9, "--out", tmp_path)
        rows = csv_rows(tmp_path / "ablate.csv")
        assert rows[0] == cli.ABLATE_HEADER
        assert [r[1] for r in rows[1:]] == list(cli.ABLATE_FLAGS)
        assert all(r[0] == "10" and r[2] != "NaN" for r in rows[1:])
        config = manifest(tmp_path)["config"]
        assert config["cell_seeds"] == [9 + 1000 * i for i in range(5)]
        assert config["rows"] == list(cli.ABLATE_FLAGS) and "detach" not in config

    def test_every_command_splits_with_the_split_sub_seed(self, fleet, tmp_path, monkeypatch):
        splits = {}  # command -> (seed, test battery ids) of each split it made
        real = training.preprocess_fleet

        def recording(records, n_input_cycles, **kwargs):
            result = real(records, n_input_cycles, **kwargs)
            splits.setdefault(command, []).append((kwargs["seed"], result[3][1]))
            return result

        monkeypatch.setattr(cli, "preprocess_fleet", recording)
        monkeypatch.setattr(training, "preprocess_fleet", recording)
        commands = {"preprocess": [], "sweep-noi": ["--noi", 0, "--epochs", 1],
                    "ablate": ["--batch-size", 4, "--epochs", 1],
                    "hyperopt": ["--budget", 4, "--epochs", 1]}
        for command, argv in commands.items():
            run(command, "--data", fleet, "--cycles", 10, "--grid", 8, *argv, "--seed", 9,
                "--out", tmp_path / command)
        want = [(cli.SEED_OFFSETS["split"] + 9, splits["preprocess"][0][1])]
        assert splits == {name: want for name in commands}

    @pytest.mark.parametrize("command,argv,csv_name", [
        ("sweep-noi", ["--noi", "0"], "sweep.csv"),
        ("ablate", [], "ablate.csv"),
    ])
    def test_failed_cell_writes_its_exception_type(self, fleet, tmp_path, monkeypatch, command,
                                                   argv, csv_name):
        def failing_train(*args, **kwargs):
            raise TrainingError("no epochs, thanks")

        monkeypatch.setattr(training, "train", failing_train)
        run(command, "--data", fleet, "--cycles", 10, "--grid", 8, *argv, "--epochs", 1,
            "--batch-size", 4, "--out", tmp_path)
        with open(tmp_path / csv_name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["mape"] == "NaN" for r in rows)
        assert {r["error"] for r in rows} == {"TrainingError: no epochs, thanks"}

    @pytest.fixture
    def root_logging(self):
        """Puts back the root logger's level and handlers, which ``cli.main``
        sets from ``FPNN_LOG``."""
        root = logging.getLogger()
        level, handlers = root.level, root.handlers[:]
        yield
        root.handlers[:] = handlers
        root.setLevel(level)

    def test_warning_log_shows_failed_cells_and_no_info(self, fleet, tmp_path, monkeypatch,
                                                        capsys, root_logging):
        """Under ``FPNN_LOG=warning`` a failed cell's WARNING record, with its
        traceback, reaches stderr, and an INFO record does not."""
        def failing_train(*args, **kwargs):
            logging.getLogger("fpnn.training").info("about to fail")
            raise TrainingError("no epochs, thanks")

        monkeypatch.setattr(training, "train", failing_train)
        monkeypatch.setenv("FPNN_LOG", "warning")
        run("ablate", "--data", fleet, "--cycles", 10, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--out", tmp_path)
        err = capsys.readouterr().err
        assert err.count("WARNING fpnn.training: failed: ") == len(cli.ABLATE_FLAGS)
        assert "Traceback" in err and "TrainingError: no epochs, thanks" in err
        assert "INFO" not in err and "about to fail" not in err

    @pytest.mark.parametrize("argv,flag,value", [
        *(pytest.param(SWEEP_ARGS, flag, value, id=f"{flag}-{value}")
          for flag, value in [("--noi", "9"), ("--noi", "0-9"), ("--noi", "-1"),
                              ("--cycles", "10,15"), ("--grid", "1"), ("--jobs", "0"),
                              ("--jobs", "-3")]),
        *(pytest.param(argv, "--grid", "1", id=f"{argv[0]}---grid-1")
          for argv in (["preprocess", "--cycles", "10"], ["ablate"],
                       ["hyperopt", "--budget", "4"])),
        pytest.param(["hyperopt"], "--budget", "3", id="hyperopt---budget-3"),
        *(pytest.param(["hyperopt", "--budget", "4"], flag, value, id=f"hyperopt-{flag}-{value}")
          for flag, value in [("--epochs", "0"), ("--patience", "-1")]),
        pytest.param(["gen"], "--n", "1", id="gen---n-1"),
        *(pytest.param(["gen", "--n", "2"], flag, value, id=f"gen-{flag}-{value}")
          for flag, value in [("--life-min", "0"), ("--life-min", "-5"), ("--life-max", "0")]),
    ])
    def test_out_of_range_grid_rejected_when_parsed(self, fleet, tmp_path, capsys, argv, flag,
                                                    value):
        out = tmp_path / "out"
        data = [] if argv[0] == "gen" else ["--data", str(fleet)]
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, *data, f"{flag}={value}", "--out", str(out)])
        assert exit_info.value.code != 0
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,grid_args,n_cells", [
        ("sweep-noi", ("--cycles", "10,20", "--noi", "0-1"), 4),
        ("ablate", ("--cycles", 10), 5),
    ])
    def test_model_options_reach_every_cell(self, fleet, tmp_path, monkeypatch, command,
                                            grid_args, n_cells):
        """--alpha, and the config file's alpha, head_hidden and (where the
        command sets no detach flags per cell) detach, build every cell's
        model."""
        built = []

        def record_config(config):  # the cell then fails fast and records the error
            built.append(config)
            raise RuntimeError("model config recorded")

        monkeypatch.setattr(training, "build_model", record_config)
        config_file = tmp_path / "config.json"
        per_cell_detach = {"detach": {"residual": True}} if command == "sweep-noi" else {}
        config_file.write_text(json.dumps({"alpha": 0.3, "head_hidden": [8, 4],
                                           **per_cell_detach}))
        run(command, "--data", fleet, *grid_args, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--seed", 9, "--alpha", 0.2, "--out", tmp_path / "flag")
        assert [c.alpha for c in built] == [0.2] * n_cells
        built.clear()
        run(command, "--data", fleet, *grid_args, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--seed", 9, "--config", config_file, "--out", tmp_path / "file")
        assert [(c.alpha, c.head_hidden) for c in built] == [(0.3, (8, 4))] * n_cells
        assert [c.seed for c in built] == manifest(tmp_path / "file")["config"]["cell_seeds"]
        want_detach = ([M.DetachFlags(residual=True)] * n_cells if command == "sweep-noi"
                       else list(cli.ABLATE_FLAGS.values()))
        assert [c.detach for c in built] == want_detach


class TestHyperopt:
    def test_trials_best_config_and_reproducible_artifacts(self, tmp_path):
        fleet = tmp_path / "fleet"
        run("gen", "--n", 6, "--seed", 4, "--life-min", 200, "--life-max", 700, "--out", fleet)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            run("hyperopt", "--data", fleet, "--budget", 4, "--epochs", 1, "--grid", 8,
                "--seed", 3, "--out", out)
        rows = csv_rows(outs[0] / "trials.csv")
        assert rows[0] == cli.TRIALS_HEADER
        assert [(r[0], r[-1]) for r in rows[1:]] == [(str(i), "ok") for i in range(4)]
        best = json.loads((outs[0] / "best_config.json").read_text())
        assert set(best) == {"noi", "alpha", "learning_rate", "batch_size", "weight_decay",
                             "epochs", "patience"}
        doc = manifest(outs[0])
        assert set(doc["outputs"]) == {"trials.csv", "best_config.json"}
        assert doc["outputs"] == manifest(outs[1])["outputs"]
        assert doc["config"] == {"budget": 4, "cycles": 10, "grid": 8, "epochs": 1,
                                 "patience": 10}

        run("preprocess", "--data", fleet, "--cycles", 10, "--grid", 8, "--out", tmp_path / "arc")
        run("train", "--data", tmp_path / "arc", "--config", outs[0] / "best_config.json",
            "--batch-size", 4, "--out", tmp_path / "train")
        doc = manifest(tmp_path / "train")
        assert doc["config"] == {
            **best, "batch_size": 4, "grid_side": 8, "head_hidden": [64],
            "detach": {"initial_layers": False, "conv3d": False, "residual": False,
                       "diff_branch": False},
            "eval_split": "test"}
        assert doc["inputs"] == [str(tmp_path / "arc"), str(outs[0] / "best_config.json")]
