"""The command-line entry point end to end: a tiny gen -> preprocess ->
train -> eval -> export-weights chain reproduces every artifact checksum
under the same seed, errors exit 1 with one line, the manifest clock
covers the command's work and the manifest records the numeric
environment, sweep-noi and ablate write one CSV row per cell with the cell
seeds in the manifest and build each cell's model from the command's model
options, and hyperopt writes its trials and best config
reproducibly."""

import json
import time

import numpy as np
import pytest

import fpnn
from fpnn import cli, training
from fpnn import model as M


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def manifest(out):
    return json.loads((out / cli.Manifest.FILENAME).read_text())


COMMANDS = {"fleet": "gen", "archive": "preprocess", "train": "train", "eval": "eval",
            "weights": "export-weights"}  # out dir -> the command writing it


def chain(root, seed=5):
    """Run the tiny chain under ``root``; returns each command's out dir."""
    dirs = {name: root / name for name in COMMANDS}
    run("gen", "--n", 6, "--seed", seed, "--life-min", 200, "--life-max", 700,
        "--out", dirs["fleet"])
    run("preprocess", "--data", dirs["fleet"], "--cycles", 10, "--grid", 8, "--seed", seed,
        "--out", dirs["archive"])
    run("train", "--data", dirs["archive"], "--epochs", 2, "--batch-size", 4, "--seed", seed,
        "--out", dirs["train"])
    checkpoint = dirs["train"] / "checkpoint.fpt"
    run("eval", "--checkpoint", checkpoint, "--data", dirs["archive"], "--seed", seed,
        "--out", dirs["eval"])
    run("export-weights", "--checkpoint", checkpoint, "--seed", seed, "--out", dirs["weights"])
    return dirs


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
            assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads",
                                "stream_threads"}
            assert set(env["blas_threads"]) == set(fpnn.BLAS_THREAD_VARS)
            assert env["numpy"] == np.__version__ and env["stream_threads"] == 2

    def test_missing_checkpoint_is_one_error_line(self, tmp_path, capsys):
        code = cli.main(["eval", "--checkpoint", str(tmp_path / "none.fpt"),
                         "--data", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
        assert manifest(tmp_path)["config"]["cell_seeds"] == [9, 1009, 2009, 3009]

    def test_ablate(self, fleet, tmp_path):
        run("ablate", "--data", fleet, "--cycles", 10, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--seed", 9, "--out", tmp_path)
        rows = csv_rows(tmp_path / "ablate.csv")
        assert rows[0] == cli.ABLATE_HEADER
        assert [r[1] for r in rows[1:]] == cli.ABLATE_ROWS
        assert all(r[0] == "10" and r[2] != "NaN" for r in rows[1:])
        assert manifest(tmp_path)["config"]["cell_seeds"] == [9 + 1000 * i for i in range(5)]

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
        config_file.write_text(json.dumps({"alpha": 0.3, "head_hidden": [8, 4],
                                           "detach": {"residual": True}}))
        run(command, "--data", fleet, *grid_args, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--seed", 9, "--alpha", 0.2, "--out", tmp_path / "flag")
        assert [c.alpha for c in built] == [0.2] * n_cells
        built.clear()
        run(command, "--data", fleet, *grid_args, "--grid", 8, "--epochs", 1,
            "--batch-size", 4, "--seed", 9, "--config", config_file, "--out", tmp_path / "file")
        assert [(c.alpha, c.head_hidden) for c in built] == [(0.3, (8, 4))] * n_cells
        assert [c.seed for c in built] == manifest(tmp_path / "file")["config"]["cell_seeds"]
        want_detach = ([M.DetachFlags(residual=True)] * n_cells if command == "sweep-noi"
                       else [cli.ABLATE_FLAGS[row] for row in cli.ABLATE_ROWS])
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
