import errno
import json
import os
from unittest import mock

import pytest

from glmbandit import cli, harness
from glmbandit.cli import cli_main
from glmbandit.links import LOGISTIC, compute_kappa


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def run_config(tmp_path):
    return write_json(
        tmp_path / "exp.json",
        dict(
            T=120,
            d=2,
            K=3,
            link="identity",
            noise="gaussian",
            sigma=0.1,
            algorithms=["ucb-glm"],
            tau=8,
            replications=2,
            master_seed=4,
            record_every=20,
        ),
    )


def test_run_subcommand_writes_outputs(tmp_path, run_config, capsys):
    out = tmp_path / "results"
    assert cli_main(["run", "--config", run_config, "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "meta.json").exists()
    assert (out / "trace_ucb-glm_0.csv").exists()
    assert "summary.csv" in capsys.readouterr().out


def test_missing_config_exits_2_and_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["run", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_invalid_config_exits_1(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"T": 10, "bogus_key": 1})
    assert cli_main(["run", "--config", path]) == 1
    assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"sigma": float("nan")},
        {"theta_norm": -1.0},
        {"T": "50"},
        {"T": True},
        {"theta_star": ["abc", 1]},
        {"algorithms": "uniform"},
        {"master_seed": -1},
        {"noise": "poisson"},
        {"sigma": -0.1},
        {"alpha_rule": "bogus", "alpha": -3.0, "algorithms": ["uniform", "oracle"]},
        {"alpha": -3.0, "algorithms": ["uniform", "oracle"]},
        {"delta": 2},
    ],
)
def test_non_finite_or_negative_spec_values_exit_1(tmp_path, run_config, overrides, capsys):
    raw = json.loads(open(run_config).read())
    raw.update(overrides)
    path = write_json(tmp_path / "bad_value.json", raw)
    out = tmp_path / "results"
    assert cli_main(["run", "--config", path, "--out", str(out)]) == 1
    assert next(iter(overrides)) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "overrides",
    [
        {"sigma": -1.0, "link": "logistic", "noise": "bernoulli"},
        {"fixed_contexts": [[1.0, 0.5], [0.0, 1.0], [0.6, 0.8]], "context_dist": "fixed"},
    ],
    ids=["bernoulli-sigma-negative", "fixed-contexts-outside-ball"],
)
def test_run_and_sweep_reject_at_parse_time(tmp_path, run_config, capsys, overrides, command):
    raw = json.loads(open(run_config).read())
    raw.update(overrides)
    path = write_json(tmp_path / "bad_value.json", raw)
    out = tmp_path / "results"
    argv = [command, "--config", path, "--out", str(out)]
    if command == "sweep":
        argv += ["--param", "epsilon", "--values", "0.1,0.2"]
    with mock.patch.object(cli, "run_experiment") as run, mock.patch.object(cli, "sweep") as swept:
        assert cli_main(argv) == 1
    assert not run.called and not swept.called
    assert next(iter(overrides)) in capsys.readouterr().err
    assert not out.exists()


class _FullDisk:
    """A file that takes the first half of a write, then fails as a full
    disk would."""

    def __init__(self, path, mode, **kwargs):
        self._fh = open(path, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["run", "validate"])
def test_failed_write_keeps_the_earlier_file_and_exits_2(
    tmp_path, run_config, monkeypatch, capsys, command
):
    out = tmp_path / "out"
    if command == "run":
        first = ["run", "--config", run_config, "--out", str(out)]
        second = first + ["--seed", "99"]
        name = "summary.csv"
    else:
        val = dict(link="identity", d=2, n=100, sigma=0.1, replications=5, master_seed=1)
        cfg_a = write_json(tmp_path / "a.json", val)
        cfg_b = write_json(tmp_path / "b.json", {**val, "replications": 7})
        first = ["validate", "--check", "znorm", "--config", cfg_a, "--out", str(out)]
        second = ["validate", "--check", "znorm", "--config", cfg_b, "--out", str(out)]
        name = "znorm_report.json"
    assert cli_main(first) == 0
    before = (out / name).read_bytes()
    files = sorted(os.listdir(out))
    monkeypatch.setattr(harness, "open", _FullDisk, raising=False)
    assert cli_main(second) == 2
    assert "No space left" in capsys.readouterr().err
    assert (out / name).read_bytes() == before
    assert sorted(os.listdir(out)) == files


def test_malformed_json_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["run", "--config", str(path)]) == 1


def test_numerical_failure_exits_3(tmp_path, capsys):
    # tau=0 leaves the design singular at the first post-init selection.
    path = write_json(
        tmp_path / "singular.json",
        dict(
            T=5, d=2, K=2, link="identity", noise="gaussian", sigma=0.1,
            algorithms=["ucb-glm"], tau=0, replications=1, master_seed=0,
        ),
    )
    assert cli_main(["run", "--config", path]) == 3
    assert "singular" in capsys.readouterr().err.lower()


def test_supcb_singular_start_exits_3(tmp_path, capsys):
    # tau=1 < d=2: F is singular, so every stage design is too.
    path = write_json(
        tmp_path / "singular.json",
        dict(
            T=20, d=2, K=3, link="logistic", noise="bernoulli",
            algorithms=["supcb-glm"], tau=1, replications=1, master_seed=0,
        ),
    )
    assert cli_main(["run", "--config", path]) == 3
    assert "singular" in capsys.readouterr().err.lower()


def test_validate_theorem1_writes_report(tmp_path, capsys):
    cfg = write_json(
        tmp_path / "val.json",
        dict(link="identity", d=2, n=200, sigma=0.1, delta=0.05,
             replications=40, master_seed=1),
    )
    out = tmp_path / "reports"
    assert cli_main(["validate", "--check", "theorem1", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "theorem1_report.json").read_text())
    assert report["replications"] == 40
    assert report["nominal"] == pytest.approx(0.85)
    assert 0.0 <= report["empirical_coverage"] <= 1.0


def test_validate_prop1_and_znorm(tmp_path):
    cfg = write_json(
        tmp_path / "val.json",
        dict(link="identity", d=2, n=150, sigma=0.5, delta=0.1,
             replications=30, master_seed=2, n_grid=[50, 200]),
    )
    out = tmp_path / "reports"
    assert cli_main(["validate", "--check", "prop1", "--config", cfg, "--out", str(out)]) == 0
    assert cli_main(["validate", "--check", "znorm", "--config", cfg, "--out", str(out)]) == 0
    growth = json.loads((out / "prop1_report.json").read_text())
    assert growth["n_grid"] == [50, 200]
    znorm = json.loads((out / "znorm_report.json").read_text())
    assert znorm["details"]["check"] == "znorm"


def test_validate_lemma4(tmp_path):
    cfg = write_json(
        tmp_path / "val.json",
        dict(link="logistic", noise="bernoulli", d=2, K=3, T=150, delta=0.05,
             replications=5, master_seed=3, tau=20),
    )
    out = tmp_path / "reports"
    assert cli_main(["validate", "--check", "lemma4", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "lemma4_report.json").read_text())
    assert "width_sum" in report
    assert report["nominal"] == pytest.approx(0.95)


def test_validate_lemma4_checks_with_the_runs_kappa(tmp_path, monkeypatch):
    seen = {}
    run, check = cli.run_ucb_glm_instrumented, cli.lemma4_event_coverage

    def spy_run(*args, **kwargs):
        seen["runs"] = run(*args, **kwargs)
        return seen["runs"]

    def spy_check(runs, sigma, kappa, delta):
        seen["kappa"] = kappa
        return check(runs, sigma, kappa, delta)

    monkeypatch.setattr(cli, "run_ucb_glm_instrumented", spy_run)
    monkeypatch.setattr(cli, "lemma4_event_coverage", spy_check)
    cfg = write_json(
        tmp_path / "val.json",
        dict(link="logistic", noise="bernoulli", d=2, K=3, T=60, delta=0.05,
             replications=2, master_seed=3, tau=20, theta_norm=2.0),
    )
    assert cli_main(["validate", "--check", "lemma4", "--config", cfg,
                     "--out", str(tmp_path / "reports")]) == 0
    assert [r.kappa for r in seen["runs"]] == [seen["kappa"]] * 2
    assert seen["kappa"] == compute_kappa(LOGISTIC, 2.0)


# Every check accepts it; its 7 replications split unevenly into 2 or 3 blocks.
SMALL_VALIDATION = dict(
    link="logistic", noise="bernoulli", d=2, n=120, K=3, T=80, tau=15, delta=0.05,
    replications=7, master_seed=5, n_grid=[20, 60, 120], n_random_directions=10,
)


@pytest.mark.parametrize("check", cli.VALIDATION_CHECKS)
def test_validate_reports_do_not_depend_on_worker_count(tmp_path, monkeypatch, check):
    cfg = write_json(tmp_path / "val.json", SMALL_VALIDATION)
    reports = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("GLM_BANDIT_THREADS", workers)
        out = tmp_path / f"workers_{workers}"
        assert cli_main(["validate", "--check", check, "--config", cfg, "--out", str(out)]) == 0
        reports[workers] = (out / f"{check}_report.json").read_bytes()
    assert reports["2"] == reports["1"]
    assert reports["3"] == reports["1"]


@pytest.mark.parametrize("value", ["0", "x"])
@pytest.mark.parametrize("check", cli.VALIDATION_CHECKS)
def test_validate_rejects_a_bad_threads_setting(tmp_path, monkeypatch, capsys, check, value):
    monkeypatch.setenv("GLM_BANDIT_THREADS", value)
    cfg = write_json(tmp_path / "val.json", SMALL_VALIDATION)
    out = tmp_path / "reports"
    assert cli_main(["validate", "--check", check, "--config", cfg, "--out", str(out)]) == 1
    assert "GLM_BANDIT_THREADS" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [{"sigma": float("nan")}, {"d": "3"}, {"delta": 2.0}, {"replications": 0},
     {"noise": "bernoulli"}],
    ids=["sigma-nan", "d-str", "delta-2", "replications-0", "bernoulli-identity"],
)
@pytest.mark.parametrize("check", ["theorem1", "lemma4"])
def test_validate_bad_values_exit_1(tmp_path, capsys, overrides, check):
    raw = dict(link="identity", d=2, n=50, K=3, T=60, tau=10, sigma=0.1, delta=0.05,
               replications=3, master_seed=1)
    raw.update(overrides)
    cfg = write_json(tmp_path / "val.json", raw)
    out = tmp_path / "reports"
    assert cli_main(["validate", "--check", check, "--config", cfg, "--out", str(out)]) == 1
    assert next(iter(overrides)) in capsys.readouterr().err
    assert not out.exists()


def test_validate_unknown_key_exits_1(tmp_path):
    cfg = write_json(tmp_path / "val.json", dict(link="identity", horizon=5))
    assert cli_main(["validate", "--check", "theorem1", "--config", cfg]) == 1


def test_bad_usage_exits_1(run_config):
    assert cli_main(["validate", "--check", "theorem9", "--config", run_config]) == 1
    assert cli_main(["frobnicate"]) == 1
    assert cli_main([]) == 1


def test_help_exits_0():
    assert cli_main(["--help"]) == 0


def test_sweep_creates_variants(tmp_path, run_config):
    out = tmp_path / "sweep"
    rc = cli_main(
        ["sweep", "--config", run_config, "--param", "alpha",
         "--values", "0,0.5,1,2", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "summary.csv").read_text().splitlines()[1:]
    variants = {line.split(",")[0] for line in lines}
    assert len(variants) == 4


def test_sweep_bad_values_exit_1(tmp_path, run_config):
    assert cli_main(["sweep", "--config", run_config, "--param", "alpha", "--values", "a,b"]) == 1


@pytest.mark.parametrize(
    "param, values",
    [("T", "40,20"), ("record_every", "10,5"), ("replications", "1,3"), ("link", "1")],
)
def test_sweep_over_unsweepable_param_exits_1(tmp_path, run_config, capsys, param, values):
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", run_config, "--param", param, "--values", values,
            "--out", str(out)]
    assert cli_main(argv) == 1
    assert param in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_integer_param_parses_integers(tmp_path, run_config):
    out = tmp_path / "sweep"
    argv = ["sweep", "--config", run_config, "--param", "tau", "--values", "6,9",
            "--out", str(out)]
    assert cli_main(argv) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert [meta["derived"][label]["tau"] for label in meta["spec"]["algorithms"]] == [6, 9]
    assert cli_main(["sweep", "--config", run_config, "--param", "tau", "--values", "6.5"]) == 1


def test_seed_override_changes_output(tmp_path, run_config):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", run_config, "--out", str(out_a), "--seed", "99"]) == 0
    assert cli_main(["run", "--config", run_config, "--out", str(out_b), "--seed", "100"]) == 0
    assert (out_a / "summary.csv").read_text() != (out_b / "summary.csv").read_text()
    meta = json.loads((out_a / "meta.json").read_text())
    assert meta["spec"]["master_seed"] == 99
