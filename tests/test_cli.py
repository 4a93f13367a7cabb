"""End-to-end tests for the command-line interface (in-process)."""

import dataclasses
import json
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirframes import cli
from dirframes import frames as fr
from dirframes import imagegrid as ig
from dirframes import sensing, solver
from dirframes import transforms as tf

import oracles


def _run(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# design


def test_design_writes_expected_files(tmp_path):
    out = tmp_path / "d"
    assert _run("design", "--family", "rdadcf", "--size", "8", "--out", str(out)) == 0
    for name in (
        "rdadcf_8_analysis.csv",
        "subbands.json",
        "dct_8.csv",
        "rdst_8.csv",
        "givens.json",
        "manifest.json",
    ):
        assert (out / name).is_file(), name
    analysis = tf.matrix_from_csv(out / "rdadcf_8_analysis.csv")
    assert analysis.shape == (128, 64)
    sub = json.loads((out / "subbands.json").read_text())
    assert len(sub["subbands"]) == 128
    giv = json.loads((out / "givens.json").read_text())
    assert len(giv["rotations"]) == 6
    man = json.loads((out / "manifest.json").read_text())
    assert man["command"] == "design" and "rdst_8.csv" in man["outputs"]


@pytest.mark.parametrize("family", fr.FRAME_FAMILIES)
def test_design_subbands_are_the_frame_records(tmp_path, family):
    out = tmp_path / "d"
    assert _run("design", "--family", family, "--size", "8", "--out", str(out)) == 0
    sub = json.loads((out / "subbands.json").read_text())
    want = [dataclasses.asdict(s) for s in fr.build_frame(family, 8).subbands]
    assert sub["subbands"] == want


def test_design_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("design", "--family", "dadcf", "--size", "4", "--out", str(out)) == 0
    for p in sorted(a.iterdir()):
        if p.name == "manifest.json":  # carries wall-clock time
            continue
        assert p.read_bytes() == (b / p.name).read_bytes(), p.name


def test_design_dft_family_real_imag(tmp_path):
    out = tmp_path / "f"
    assert _run("design", "--family", "dft", "--size", "8", "--out", str(out)) == 0
    assert (out / "dft_8_real.csv").is_file() and (out / "dft_8_imag.csv").is_file()


def test_design_bad_size_exits_2(tmp_path):
    assert _run("design", "--family", "dadcf", "--size", "6", "--out", str(tmp_path / "x")) == 2


def _run_capped(*argv):
    """``dirframes`` in a child process whose address space is capped at
    1 GiB, at one BLAS thread, so that an unbounded allocation fails fast."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "dirframes.cli", *argv], env=env,
                          preexec_fn=cap, capture_output=True, text=True)


def test_oversized_block_exits_2_before_allocating(tmp_path):
    # the dense analysis matrix of M = 128 would take 2 GiB; design and
    # verify refuse it with the usage code and write nothing, while a size
    # within the bound still runs under the same cap
    out = tmp_path / "x"
    for argv in (("design", "--out", str(out)), ("verify",)):
        run = _run_capped(*argv, "--family", "dct", "--size", "128")
        assert run.returncode == 2, run.stderr
        assert "M^2 <= 4096" in run.stderr and "Traceback" not in run.stderr
    assert not out.exists()
    run = _run_capped("design", "--family", "rdadcf", "--size", "16", "--out", str(tmp_path / "ok"))
    assert run.returncode == 0, run.stderr


def test_unknown_family_exits_2(tmp_path):
    assert _run("design", "--family", "curvelet", "--size", "8", "--out", str(tmp_path / "x")) == 2


def test_no_command_exits_2(capsys):
    assert _run() == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_family_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert _run("verify", "--family", "rdadcf", "--size", "8", "--out", str(report_path)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["family"] == "rdadcf"
    assert all(c["pass"] for c in report["checks"])
    names = {c["name"] for c in report["checks"]}
    assert "parseval_residual" in names and "regularity_residual" in names
    assert json.loads(report_path.read_text()) == report


def _rdadcf_layout(count, rank, rotations, fixtures=()):
    return [
        ("parseval_residual", "< 1e-10"),
        ("directional_count", f"== {count}"),
        ("analyticity_max_sidedness", "< 0.15"),
        ("regularity_residual", "< 1e-10"),
        ("row_structure_residual", "< 1e-10"),
        ("orthogonality_residual", "< 1e-10"),
        ("first_null_vector_residual", "< 1e-10"),
        ("modified_sine_rank", f"== {rank}"),
        ("first_zeroed_rank", f"== {rank}"),
        *fixtures,
        ("conditioning_max_offdiag", "< 0.5"),
        ("conditioning_min_updated_diag", "> 1"),
        ("givens_rotation_count", f"== {rotations}"),
        ("sine_row_dc_closed_form", "< 1e-10"),
    ]


def _dadcf_layout(count):
    return [
        ("parseval_residual", "< 1e-10"),
        ("directional_count", f"== {count}"),
        ("analyticity_max_sidedness", "< 0.15"),
        ("mixed_atom_identity", "< 1e-12"),
    ]


_PYRAMID_LAYOUT = [("round_trip_residual", "< 1e-10"), ("inner_parseval_residual", "< 1e-10")]
_SEPARABLE_LAYOUT = [("parseval_residual", "< 1e-10")]

# the (name, limit) of every check in report order, written out per case
_VERIFY_LAYOUT = {
    ("dadcf", 4): _dadcf_layout(18),
    ("dadcf", 8): _dadcf_layout(98),
    ("rdadcf", 4): _rdadcf_layout(8, rank=3, rotations=1, fixtures=(
        ("gram_fixture_01", "< 0.0005"), ("gram_fixture_03", "< 0.0005"))),
    ("rdadcf", 8): _rdadcf_layout(72, rank=7, rotations=6),
    **{("pyramid", M): _PYRAMID_LAYOUT for M in (4, 8)},
    **{(f, M): _SEPARABLE_LAYOUT for f in ("dct", "dht", "dft") for M in (4, 8)},
}


@pytest.mark.parametrize("family, M", sorted(_VERIFY_LAYOUT))
def test_verify_report_layout(family, M, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert _run("verify", "--family", family, "--size", str(M), "--out", str(out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert [(c["name"], c["limit"]) for c in report["checks"]] == _VERIFY_LAYOUT[family, M]
    assert all(c["pass"] is True for c in report["checks"]) and report["pass"] is True
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("family", ("dadcf", "pyramid", "dht"))
def test_verify_other_families_pass(family, capsys):
    assert _run("verify", "--family", family, "--size", "8") == 0
    capsys.readouterr()


def test_verify_matrix_csv_good(tmp_path, capsys):
    path = tmp_path / "ortho.csv"
    tf.matrix_to_csv(tf.build_dct(8).entries, path)
    assert _run("verify", "--matrix-csv", str(path)) == 0
    capsys.readouterr()


def test_verify_matrix_csv_corrupted_exits_1(tmp_path, capsys):
    m = tf.build_dct(8).entries.copy()
    m[3, 4] += 0.02  # break orthogonality
    path = tmp_path / "broken.csv"
    tf.matrix_to_csv(m, path)
    assert _run("verify", "--matrix-csv", str(path)) == 1
    err = capsys.readouterr().err
    assert "fail" in err.lower()


def test_verify_matrix_csv_garbage_exits_1(tmp_path, capsys):
    path = tmp_path / "garbage.csv"
    path.write_text("not,a\nnumber,grid,at,all\n")
    assert _run("verify", "--matrix-csv", str(path)) == 1
    capsys.readouterr()


def test_verify_matrix_csv_missing_exits_3(tmp_path, capsys):
    assert _run("verify", "--matrix-csv", str(tmp_path / "nope.csv")) == 3
    capsys.readouterr()


def test_verify_requires_target(capsys):
    assert _run("verify") == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# decompose


def _write_image(path, img):
    ig.write_pgm(img, path)
    return str(path)


def test_decompose_zoneplate_dadcf_leaks(tmp_path, capsys):
    img_path = _write_image(tmp_path / "z.pgm", oracles.zoneplate(64))
    out = tmp_path / "dec"
    assert _run("decompose", "--image", img_path, "--family", "dadcf", "--size", "8",
                "--out", str(out)) == 0
    capsys.readouterr()
    energy = json.loads((out / "energy.json").read_text())
    assert energy["dc_leakage"]["leak_fraction"] > 0.01
    planes = tf.matrix_from_csv(out / "coefficients.csv")
    assert planes.shape == (128, 64)
    assert (out / "mosaic.pgm").is_file()
    mosaic = ig.read_pgm(out / "mosaic.pgm")
    assert mosaic.shape[0] % 8 == 0


@pytest.mark.parametrize("family", ("rdadcf", "pyramid"))
def test_decompose_regular_families_no_leak(family, tmp_path, capsys):
    img_path = _write_image(tmp_path / "z.pgm", oracles.zoneplate(64))
    out = tmp_path / family
    assert _run("decompose", "--image", img_path, "--family", family, "--size", "8",
                "--out", str(out)) == 0
    capsys.readouterr()
    energy = json.loads((out / "energy.json").read_text())
    dc = energy["dc_leakage"]
    assert dc["leak_energy"] <= 1e-6 * dc["mean_field_energy"]


def test_decompose_missing_image_exits_3(tmp_path, capsys):
    assert _run("decompose", "--image", str(tmp_path / "no.pgm"), "--family", "dadcf",
                "--size", "8", "--out", str(tmp_path / "o")) == 3
    capsys.readouterr()


def test_decompose_misaligned_image_exits_2(tmp_path, capsys):
    img_path = _write_image(tmp_path / "odd.pgm", np.zeros((12, 12)))
    assert _run("decompose", "--image", img_path, "--family", "dadcf", "--size", "8",
                "--out", str(tmp_path / "o")) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# sense / recover / report round trip


@pytest.fixture()
def small_case(tmp_path):
    img = ig.block_mosaic(32, seed=3)
    img_path = _write_image(tmp_path / "img.pgm", img)
    obs_path = tmp_path / "obs.bin"
    rc = _run("sense", "--image", img_path, "--rate", "0.6", "--sigma", "0.05",
              "--seed", "9", "--out", str(obs_path))
    assert rc == 0
    return img_path, str(obs_path), tmp_path


def test_sense_writes_observation_and_manifest(small_case, capsys):
    _, obs_path, tmp = small_case
    capsys.readouterr()
    from dirframes import sensing

    obs = sensing.load_observation(obs_path)
    assert (obs.height, obs.width) == (32, 32)
    assert obs.rate == 0.6
    man = json.loads((tmp / "obs.bin.manifest.json").read_text())
    assert man["command"] == "sense" and man["parameters"]["rate"] == 0.6


def test_manifest_names_the_blas_core(small_case):
    # the CPU kernel OpenBLAS picked at load decides bytes and speed; None
    # where the library does not export its name
    man = json.loads((small_case[2] / "obs.bin.manifest.json").read_text())
    core = man["environment"]["blas_core"]
    assert core is None or (isinstance(core, str) and core)


def test_recover_round_trip(small_case, capsys):
    img_path, obs_path, tmp = small_case
    out = tmp / "rec.pgm"
    rc = _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
              "--truth", img_path, "--out", str(out))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "PSNR" in stdout
    report = json.loads((tmp / "rec.pgm.report.json").read_text())
    assert report["psnr"] > report["baseline_psnr"]
    assert report["family"] == "rdadcf" and report["problem"] == 2
    rec = ig.read_pgm(out)
    truth = ig.read_pgm(img_path)
    assert ig.psnr(truth, rec) > 20.0


def test_recover_byte_deterministic(small_case, capsys):
    _, obs_path, tmp = small_case
    outs = []
    for tag in ("r1", "r2"):
        out = tmp / f"{tag}.pgm"
        assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                    "--problem", "1", "--out", str(out)) == 0
        outs.append(out.read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", (sensing.SCRAMBLED_HADAMARD, sensing.COMPLEX_NOISELET))
def test_sense_recover_reproducible_at_fixed_thread_count(tmp_path, mode):
    # the determinism contract in separate processes: at a fixed BLAS thread
    # count a re-run reproduces the observation, image and report bytes, and
    # every manifest records the thread count it ran at
    img_path = _write_image(tmp_path / "img.pgm", ig.block_mosaic(64, seed=5))
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    runs = []
    for tag in ("a", "b"):
        # same relative paths in both runs: the report records the observation path
        cwd = tmp_path / tag
        cwd.mkdir()
        for argv in (("sense", "--image", img_path, "--rate", "0.4", "--sigma", "0.1",
                      "--seed", "7", "--mode", mode, "--out", "obs.bin"),
                     ("recover", "--obs", "obs.bin", "--family", "rdadcf", "--size", "8",
                      "--truth", img_path, "--out", "rec.pgm")):
            subprocess.run([sys.executable, "-m", "dirframes.cli", *argv], cwd=cwd, env=env,
                           check=True, capture_output=True)
        for manifest in ("obs.bin.manifest.json", "rec.pgm.manifest.json"):
            threads = json.loads((cwd / manifest).read_text())["environment"]["threads"]
            assert threads["OPENBLAS_NUM_THREADS"] == "1"
        runs.append([(cwd / name).read_bytes() for name in ("obs.bin", "rec.pgm", "rec.pgm.report.json")])
    assert runs[0] == runs[1]


def test_recover_with_config_and_oracle(small_case, capsys):
    img_path, obs_path, tmp = small_case
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 40, "stop_tol": 0.0}))
    out = tmp / "cfg_rec.pgm"
    rc = _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
              "--config", str(cfg), "--truth", img_path, "--epsilon-oracle",
              "--out", str(out))
    assert rc == 0
    capsys.readouterr()
    report = json.loads((tmp / "cfg_rec.pgm.report.json").read_text())
    assert report["iterations"] == 40


def test_recover_bad_config_key_exits_2(small_case, capsys):
    _, obs_path, tmp = small_case
    cfg = tmp / "bad.json"
    # an unknown key, a value that is not a JSON object, and values that are
    # not finite numbers
    for text in ('{"momentum": 0.9}', "5", "[]", '{"max_iters": null}', '{"gamma1": [1]}',
                 '{"gamma1": true}', '{"stop_tol": "0.1"}', '{"gamma1": NaN}',
                 '{"gamma2": Infinity}', '{"gamma1": 1%s}' % ("0" * 400)):
        cfg.write_text(text)
        assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                    "--config", str(cfg), "--out", str(tmp / "x.pgm")) == 2, text
        assert f"error: {cfg}: " in capsys.readouterr().err, text


@pytest.mark.parametrize("content", [b"{bad", b'{"gamma1": "\xff"}'],
                         ids=["malformed", "not-utf8"])
def test_recover_unparseable_config_names_its_file(small_case, content, capsys):
    _, obs_path, tmp = small_case
    cfg = tmp / "unparseable.json"
    cfg.write_bytes(content)
    assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                "--config", str(cfg), "--out", str(tmp / "x.pgm")) == 2
    assert f"error: {cfg}: " in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"max_iters": -5}, {"stop_tol": -1}])
def test_recover_out_of_domain_config_exits_2(small_case, config, capsys):
    # finite numbers that the solver refuses, before any iteration
    _, obs_path, tmp = small_case
    cfg = tmp / "domain.json"
    cfg.write_text(json.dumps(config))
    out = tmp / "x.pgm"
    assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                "--config", str(cfg), "--out", str(out)) == 2
    assert f"error: {next(iter(config))}" in capsys.readouterr().err
    assert not out.exists()


def test_recover_oracle_without_truth_exits_2(small_case, capsys):
    _, obs_path, tmp = small_case
    assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                "--epsilon-oracle", "--out", str(tmp / "x.pgm")) == 2
    capsys.readouterr()


@pytest.mark.parametrize("extra", [[], ["--epsilon-oracle"]], ids=["truth", "epsilon-oracle"])
def test_recover_truth_of_wrong_size_exits_2(small_case, extra, capsys):
    # a 16 x 16 truth for a 32 x 32 observation fails before any iteration
    _, obs_path, tmp = small_case
    truth = _write_image(tmp / "small.pgm", ig.block_mosaic(16, seed=0))
    out = tmp / "x.pgm"
    assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                "--truth", truth, "--out", str(out), *extra) == 2
    assert "truth image shape (16, 16) does not match the observation's (32, 32)" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_recover_missing_observation_exits_3(tmp_path, capsys):
    assert _run("recover", "--obs", str(tmp_path / "none.bin"), "--family", "rdadcf",
                "--size", "8", "--out", str(tmp_path / "x.pgm")) == 3
    capsys.readouterr()


def test_sense_zero_measurements_exits_2(tmp_path, capsys):
    img_path = _write_image(tmp_path / "img.pgm", ig.block_mosaic(16, seed=0))
    assert _run("sense", "--image", img_path, "--rate", "0.001", "--sigma", "0",
                "--seed", "1", "--out", str(tmp_path / "obs.bin")) == 2
    capsys.readouterr()


_MALFORMED_MESSAGE = {
    "count": "header count",
    "rate": "sampling rate",
    "sigma": "noise level",
    "payload": "non-finite measurement",
    "pow2": "not a power of two",
    "huge": "truncated payload",
    "ceiling": "exceeds the limit",
}


@pytest.mark.parametrize("field", list(_MALFORMED_MESSAGE))
def test_recover_malformed_header_exits_3(small_case, field, capsys):
    # a count 3 short of floor(rate * n + 0.5) with the payload cut to match,
    # a rate outside (0, 1], a NaN noise level, a NaN measurement, or an
    # 8 x 24 image (n = 192, not a power of two) at rate 1 with all 192 values,
    # a header whose count is far past the file's end, or one past the size
    # ceiling with its whole payload
    _, obs_path, tmp = small_case
    raw = Path(obs_path).read_bytes()
    size = sensing._HEADER.size
    nan = struct.pack("<d", float("nan"))
    if field == "count":
        (m,) = struct.unpack("<Q", raw[size - 8 : size])
        raw = raw[: size - 8] + struct.pack("<Q", m - 3) + raw[size : size + 8 * (m - 3)]
    elif field == "rate":
        at = struct.calcsize("<8sIIQ")           # the header's float64 rate
        raw = raw[:at] + struct.pack("<d", float("inf")) + raw[at + 8 :]
    elif field == "sigma":
        at = struct.calcsize("<8sIIQdQQ")        # the header's float64 sigma
        raw = raw[:at] + nan + raw[at + 8 :]
    elif field == "huge":
        # a valid 65536 x 65536 header: its count asks for a 16 GiB payload
        magic, _, _, _, _, seed, seed_noise, sigma, mode, _ = sensing._HEADER.unpack(raw[:size])
        raw = (sensing._HEADER.pack(magic, 2**16, 2**16, 2**32, 0.5, seed, seed_noise, sigma,
                                    mode, 2**31) + raw[size:])
    elif field == "ceiling":
        # 65536 x 65536 at rate 1e-9: m = 4, a 32-byte payload that is all there
        magic, _, _, _, _, seed, seed_noise, sigma, mode, _ = sensing._HEADER.unpack(raw[:size])
        raw = (sensing._HEADER.pack(magic, 2**16, 2**16, 2**32, 1e-9, seed, seed_noise, sigma,
                                    mode, 4) + raw[size : size + 8 * 4])
    elif field == "pow2":
        magic, _, _, _, _, seed, seed_noise, sigma, mode, _ = sensing._HEADER.unpack(raw[:size])
        raw = (sensing._HEADER.pack(magic, 8, 24, 192, 1.0, seed, seed_noise, sigma, mode, 192)
               + raw[size : size + 8 * 192])
    else:
        at = size + 8 * 5                        # the sixth measurement
        raw = raw[:at] + nan + raw[at + 8 :]
    bad = tmp / "bad.bin"
    bad.write_bytes(raw)
    assert _run("recover", "--obs", str(bad), "--family", "rdadcf", "--size", "8",
                "--out", str(tmp / "x.pgm")) == 3
    assert _MALFORMED_MESSAGE[field] in capsys.readouterr().err


def test_sense_past_size_ceiling_exits_2(tmp_path, monkeypatch, capsys):
    # the ceiling, lowered so that a 16 x 16 image is past it
    monkeypatch.setattr(sensing, "MAX_SIGNAL_LENGTH", 128)
    img_path = _write_image(tmp_path / "img.pgm", ig.block_mosaic(16, seed=0))
    out = tmp_path / "obs.bin"
    assert _run("sense", "--image", img_path, "--rate", "0.5", "--sigma", "0",
                "--seed", "1", "--out", str(out)) == 2
    assert "exceeds the limit of 128" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_sense_non_finite_sigma_exits_2(tmp_path, sigma, capsys):
    img_path = _write_image(tmp_path / "img.pgm", ig.block_mosaic(16, seed=0))
    out = tmp_path / "obs.bin"
    assert _run("sense", "--image", img_path, "--rate", "0.5", "--sigma", sigma,
                "--seed", "1", "--out", str(out)) == 2
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed_noise", ["-1", str(2**64)])
def test_sense_noise_seed_out_of_range_exits_2(tmp_path, seed_noise, capsys):
    img_path = _write_image(tmp_path / "img.pgm", ig.block_mosaic(16, seed=0))
    out = tmp_path / "obs.bin"
    assert _run("sense", "--image", img_path, "--rate", "0.5", "--sigma", "0.1",
                "--seed", "1", "--seed-noise", seed_noise, "--out", str(out)) == 2
    assert "seed_noise must fit in uint64" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["img.pgm"]


def test_recover_nan_epsilon_exits_2(small_case, capsys):
    _, obs_path, tmp = small_case
    out = tmp / "x.pgm"
    assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                "--epsilon", "nan", "--out", str(out)) == 2
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


def test_recover_divergence_exits_4(small_case, monkeypatch, capsys):
    _, obs_path, tmp = small_case

    def explode(problem, config=None, truth=None):
        raise solver.DivergenceError("synthetic blow-up")

    monkeypatch.setattr(cli.solver, "solve", explode)
    assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                "--out", str(tmp / "x.pgm")) == 4
    capsys.readouterr()


def test_report_aggregates_runs(small_case, capsys):
    img_path, obs_path, tmp = small_case
    runs = tmp / "runs"
    runs.mkdir()
    for seed_tag in ("s0", "s1"):
        out = runs / f"{seed_tag}.pgm"
        assert _run("recover", "--obs", obs_path, "--family", "rdadcf", "--size", "8",
                    "--problem", "1", "--truth", img_path, "--out", str(out)) == 0
    capsys.readouterr()
    csv_path = tmp / "table.csv"
    assert _run("report", "--runs", str(runs), "--out", str(csv_path)) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("image,family,size,rate,problem,seed")
    assert len(lines) == 3
    avg_path = tmp / "avg.csv"
    assert _run("report", "--runs", str(runs), "--out", str(avg_path), "--average") == 0
    avg_lines = avg_path.read_text().strip().splitlines()
    assert len(avg_lines) == 2 and "mean-of-2" in avg_lines[1]
    capsys.readouterr()


def test_report_empty_dir_exits_3(tmp_path, capsys):
    empty = tmp_path / "runs"
    empty.mkdir()
    assert _run("report", "--runs", str(empty), "--out", str(tmp_path / "t.csv")) == 3
    capsys.readouterr()


def test_report_malformed_file_exits_3(tmp_path, capsys):
    # not an object, an object without an integer iteration count, a PSNR
    # that is not a number, a field that is not a scalar, and text that is
    # not JSON
    runs = tmp_path / "runs"
    runs.mkdir()
    bad = runs / "bad.report.json"
    for text in ("[1, 2]", "{}", '{"iterations": "12"}', '{"iterations": true}',
                 '{"iterations": 3, "psnr": "x"}', '{"iterations": 3, "image": [1]}',
                 "{not json"):
        bad.write_text(text)
        for extra in ((), ("--average",)):
            assert _run("report", "--runs", str(runs), "--out", str(tmp_path / "t.csv"),
                        *extra) == 3, (text, extra)
            assert "bad.report.json" in capsys.readouterr().err
