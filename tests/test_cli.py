import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import refcal
from helpers import JSON_LEAVES, leaf_paths, replaced
from refcal.cli import EXIT_DEGENERATE, EXIT_INPUT, EXIT_OK, main
from refcal.fileio import builtin_chain_path, parse_pose_file, parse_result_file
from refcal.geometry import rotation_error


def _chain(name="panda"):
    return str(builtin_chain_path(name))


def test_simulate_then_calibrate_roundtrip(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--seed", "5", "--mode", "eob", "--chain", _chain(),
                 "-o", str(scene_dir)]) == 0
    for name in ("chain.json", "joints.csv", "track.csv", "intrinsics.json",
                 "ground_truth.json"):
        assert (scene_dir / name).exists()

    out = tmp_path / "result.json"
    code = main([
        "calibrate", "--mode", "eob",
        "--chain", str(scene_dir / "chain.json"),
        "--joints", str(scene_dir / "joints.csv"),
        "--track", str(scene_dir / "track.csv"),
        "--intrinsics", str(scene_dir / "intrinsics.json"),
        "-o", str(out),
    ])
    assert code == 0
    doc = parse_result_file(out)
    gt = parse_pose_file(scene_dir / "ground_truth.json")
    assert np.max(np.abs(doc.pose.translation - gt.translation)) < 1e-5
    assert rotation_error(doc.pose, gt) < 1e-6
    assert doc.rms_reprojection_px < 1e-6
    assert set(doc.input_digests) == {"chain", "joints", "track", "intrinsics"}
    assert all(d.startswith("sha256:") for d in doc.input_digests.values())


def test_eval_command(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    main(["simulate", "--seed", "6", "--chain", _chain(), "-o", str(scene_dir)])
    out = tmp_path / "result.json"
    main([
        "calibrate", "--mode", "eob",
        "--chain", str(scene_dir / "chain.json"),
        "--joints", str(scene_dir / "joints.csv"),
        "--track", str(scene_dir / "track.csv"),
        "--intrinsics", str(scene_dir / "intrinsics.json"),
        "-o", str(out),
    ])
    capsys.readouterr()
    assert main(["eval", "--est", str(out), "--gt", str(scene_dir / "ground_truth.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["e_trans_cm"] < 1e-3
    assert payload["e_r_rad"] < 1e-6


def test_simulate_eih_with_noise(tmp_path):
    scene_dir = tmp_path / "eih"
    code = main(["simulate", "--seed", "7", "--mode", "eih",
                 "--chain", _chain("panda_base_ref"), "--sigma", "2.0",
                 "-o", str(scene_dir)])
    assert code == 0
    out = tmp_path / "result.json"
    code = main([
        "calibrate", "--mode", "eih",
        "--chain", str(scene_dir / "chain.json"),
        "--joints", str(scene_dir / "joints.csv"),
        "--track", str(scene_dir / "track.csv"),
        "--intrinsics", str(scene_dir / "intrinsics.json"),
        "-o", str(out),
    ])
    assert code == 0
    doc = parse_result_file(out)
    gt = parse_pose_file(scene_dir / "ground_truth.json")
    assert np.max(np.abs(doc.pose.translation - gt.translation)) < 0.05


def test_missing_required_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--mode", "eob"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unreadable_input_exits_2(tmp_path, capsys):
    code = main(["simulate", "--seed", "1", "--chain", str(tmp_path / "nope.json"),
                 "-o", str(tmp_path / "x")])
    assert code == 2


def _calibrate_args(scene, joints=None, track=None, output=None, intrinsics=None, chain=None):
    return [
        "calibrate", "--mode", "eob",
        "--chain", str(chain or scene / "chain.json"),
        "--joints", str(joints or scene / "joints.csv"),
        "--track", str(track or scene / "track.csv"),
        "--intrinsics", str(intrinsics or scene / "intrinsics.json"),
        "-o", str(output or scene.parent / "result.json"),
    ]


@pytest.mark.parametrize("role", ["joints", "output"])
def test_directory_as_a_file_path_exits_2_naming_it(tmp_path, role):
    # An input to read or an output to write that is a directory is bad
    # input, reported with its path rather than as a traceback.
    scene = tmp_path / "scene"
    assert main(["simulate", "--seed", "5", "--chain", _chain(), "-o", str(scene)]) == 0
    folder = tmp_path / "folder"
    folder.mkdir()
    proc = _run_cli(*_calibrate_args(scene, **{role: folder}))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {folder}: " in proc.stderr


def test_bad_file_content_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["simulate", "--seed", "1", "--chain", str(bad), "-o", str(tmp_path / "x")])
    assert code == 2


def test_non_finite_chain_number_exits_2_naming_the_file(tmp_path, capsys):
    # A NaN in the chain file is reported against that file, not later as
    # non-finite correspondences.
    scene_dir = tmp_path / "scene"
    assert main(["simulate", "--seed", "5", "--chain", _chain(), "-o", str(scene_dir)]) == 0
    chain_file = scene_dir / "chain.json"
    doc = json.loads(chain_file.read_text())
    doc["joints"][2]["axis"] = [0.0, 0.0, float("nan")]
    chain_file.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main([
        "calibrate", "--mode", "eob",
        "--chain", str(chain_file),
        "--joints", str(scene_dir / "joints.csv"),
        "--track", str(scene_dir / "track.csv"),
        "--intrinsics", str(scene_dir / "intrinsics.json"),
        "-o", str(tmp_path / "result.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(chain_file) in err
    assert "non-finite number NaN" in err
    assert "Traceback" not in err


def test_degenerate_track_exits_3(tmp_path, capsys):
    # A track confined to a line: build files by hand around a rail chain.
    chain_file = tmp_path / "rail.json"
    chain_file.write_text(json.dumps({
        "name": "rail",
        "joints": [{"name": "slide", "kind": "prismatic", "axis": [1, 0, 0],
                    "origin": {"t": [0, 0, 0], "q": [1, 0, 0, 0]}}],
        "reference_point": {"link": 1, "offset": [0, 0, 0]},
    }))
    n = 20
    joints = "frame,t,j1\n" + "".join(
        f"{i},{i / 30.0},{-0.4 + 0.04 * i}\n" for i in range(n)
    )
    (tmp_path / "joints.csv").write_text(joints)
    # Pixels on a horizontal image line, consistent with the linear motion.
    track = "frame,u,v,visible,sync\n" + "".join(
        f"{i},{500 + 40 * i},540.0,1,1\n" for i in range(n)
    )
    (tmp_path / "track.csv").write_text(track)
    (tmp_path / "k.json").write_text(
        '{"fov_deg_horizontal": 60, "width": 1920, "height": 1080}'
    )
    code = main([
        "calibrate", "--mode", "eob",
        "--chain", str(chain_file),
        "--joints", str(tmp_path / "joints.csv"),
        "--track", str(tmp_path / "track.csv"),
        "--intrinsics", str(tmp_path / "k.json"),
        "-o", str(tmp_path / "r.json"),
    ])
    assert code == 3
    assert "collinear" in capsys.readouterr().err


def test_too_few_pairs_exits_3(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    main(["simulate", "--seed", "8", "--chain", _chain(), "-o", str(scene_dir)])
    code = main([
        "calibrate", "--mode", "eob",
        "--chain", str(scene_dir / "chain.json"),
        "--joints", str(scene_dir / "joints.csv"),
        "--track", str(scene_dir / "track.csv"),
        "--intrinsics", str(scene_dir / "intrinsics.json"),
        "--min-pairs", "5000",
        "-o", str(tmp_path / "r.json"),
    ])
    assert code == 3


def test_sweep_commands_smoke(tmp_path):
    noise_csv = tmp_path / "noise.csv"
    code = main(["sweep-noise", "--seed", "9", "--chain", _chain(),
                 "--sigmas", "0,2", "--repeats", "2", "-o", str(noise_csv)])
    assert code == 0
    lines = noise_csv.read_text().splitlines()
    assert any(line.startswith("# meta: seed=9") for line in lines)
    assert sum(1 for line in lines if not line.startswith("#")) == 3  # header + 2 rows

    frames_csv = tmp_path / "frames.csv"
    code = main(["sweep-frames", "--seed", "9", "--chain", _chain(),
                 "--counts", "4,20", "--sigma", "1.0", "--repeats", "2",
                 "-o", str(frames_csv)])
    assert code == 0
    assert frames_csv.exists()


def test_mode_strings_validated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "1", "--mode", "upside-down", "--chain", _chain(),
              "-o", "x"])
    assert exc.value.code == 2


def _run_cli(*args):
    """The CLI in a child process, so an uncaught error shows as a traceback;
    as in the suite, a RuntimeWarning is an error there, so a numpy warning
    that leaks from a run shows as one too."""
    env = dict(os.environ, PYTHONPATH=str(Path(refcal.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "refcal.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_eval_scalar_translation_exits_2_without_traceback(tmp_path):
    pose = tmp_path / "pose.json"
    pose.write_text('{"translation_m": 0.5, "quaternion_wxyz": [1, 0, 0, 0]}')
    proc = _run_cli("eval", "--est", str(pose), "--gt", str(pose))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(pose) in proc.stderr


def test_one_element_joint_limits_exits_2_without_traceback(tmp_path):
    doc = json.loads(Path(_chain()).read_text())
    doc["joints"][0]["limits"] = [-1.0]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(doc))
    proc = _run_cli("sweep-noise", "--seed", "1", "--chain", str(chain), "--sigmas", "0",
                    "--repeats", "1", "-o", str(tmp_path / "noise.csv"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert str(chain) in proc.stderr


def test_non_finite_track_pixel_exits_2_without_traceback(tmp_path):
    scene = tmp_path / "scene"
    assert main(["simulate", "--seed", "5", "--chain", _chain(), "-o", str(scene)]) == 0
    track = scene / "track.csv"
    lines = track.read_text().splitlines()
    row = next(i for i, line in enumerate(lines[1:], start=1) if line.endswith(",1,1"))
    fields = lines[row].split(",")
    lines[row] = ",".join([fields[0], "inf", *fields[2:]])
    track.write_text("\n".join(lines) + "\n")
    proc = _run_cli("calibrate", "--mode", "eob", "--chain", str(scene / "chain.json"),
                    "--joints", str(scene / "joints.csv"), "--track", str(track),
                    "--intrinsics", str(scene / "intrinsics.json"),
                    "-o", str(tmp_path / "result.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{track}:{row + 1}:2" in proc.stderr


@pytest.mark.parametrize("name", ["joints.csv", "track.csv"])
def test_frame_index_beyond_int64_exits_2_without_traceback(tmp_path, name):
    scene = tmp_path / "scene"
    assert main(["simulate", "--seed", "5", "--chain", _chain(), "-o", str(scene)]) == 0
    bad = scene / name
    lines = bad.read_text().splitlines()
    lines[1] = "99999999999999999999999" + lines[1][lines[1].index(","):]
    bad.write_text("\n".join(lines) + "\n")
    proc = _run_cli("calibrate", "--mode", "eob", "--chain", str(scene / "chain.json"),
                    "--joints", str(scene / "joints.csv"), "--track", str(scene / "track.csv"),
                    "--intrinsics", str(scene / "intrinsics.json"),
                    "-o", str(tmp_path / "result.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"{bad}:2:1" in proc.stderr


_PAST_FLOAT_RANGE = "1" * 400


@pytest.mark.parametrize(
    "command, text",
    [
        ("calibrate", f'{{"fx": {_PAST_FLOAT_RANGE}, "fy": 500, "cx": 320, "cy": 240, '
                      '"width": 640, "height": 480}'),
        ("calibrate", '{"fov_deg_horizontal": 5e-324, "width": 640, "height": 480}'),
        ("calibrate", '{"fov_deg_horizontal": 1e-308, "width": 640, "height": 480}'),
        ("eval", f'{{"translation_m": [{_PAST_FLOAT_RANGE}, 0, 0], '
                 '"quaternion_wxyz": [1, 0, 0, 0]}'),
        ("eval", '{"translation_m": [0, 0, 0], "quaternion_wxyz": [1e200, 0, 0, 0]}'),
        ("eval", '{"pose": {"translation_m": [0, 0, 0], "quaternion_wxyz": [1e200, 0, 0, 0]}}'),
    ],
    ids=["intrinsics_400_digit_fx", "fov_5e-324", "fov_1e-308", "pose_400_digit_translation",
         "pose_quaternion_1e200", "result_quaternion_1e200"],
)  # fmt: skip
def test_numbers_out_of_range_exit_2_naming_the_file(tmp_path, noisy_scene, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if command == "calibrate":
        proc = _run_cli(*_calibrate_args(noisy_scene, intrinsics=bad, output=tmp_path / "r.json"))
    else:
        proc = _run_cli("eval", "--est", str(bad), "--gt", str(noisy_scene / "ground_truth.json"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"error: {bad}" in proc.stderr


def test_a_focal_length_whose_square_underflows_exits_3(tmp_path, noisy_scene):
    # At fx = fy = 1e-300 px the rays' squared norms underflow to zero: the
    # solve fails with the float-range error instead of warning as it divides.
    doc = json.loads((noisy_scene / "intrinsics.json").read_text())
    doc["fx"] = doc["fy"] = 1e-300
    bad = tmp_path / "intrinsics.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    proc = _run_cli(*_calibrate_args(noisy_scene, intrinsics=bad, output=out))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "error: the solve left the float range" in proc.stderr
    assert not out.exists()


def test_a_refined_pose_with_points_behind_the_camera_exits_3(tmp_path, noisy_scene):
    # A wrong focal length leaves no pose that fits the track.  At 1e37 px or
    # 1e8 px the refined pose keeps every tracked point in front of the
    # camera but is a wild fit: each exits 3 naming its median error (some
    # hundred px at 1e8 px, ~1e11 px at 1e37 px) instead of writing a result.
    # The wild-fit bound is 5% of the 1920 x 1080 image's diagonal, 110 px.
    doc = json.loads((noisy_scene / "intrinsics.json").read_text())
    for fx, low, high in ((1e37, 1e10, 1e12), (1e8, 110.2, 1e4)):
        doc["fx"] = fx
        bad = tmp_path / "intrinsics.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "r.json"
        proc = _run_cli(*_calibrate_args(noisy_scene, intrinsics=bad, output=out))
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        wild = re.search(
            r"error: the refined pose is a wild fit: its median reprojection error, (\S+) px, "
            r"passes 5% of the image diagonal",
            proc.stderr,
        )
        assert wild and low < float(wild[1]) < high
        assert not out.exists()


def _with(doc, path, value):
    """doc with the value at key path replaced (the whole doc for an empty path)."""
    if not path:
        return value
    doc[path[0]] = _with(doc[path[0]], path[1:], value)
    return doc


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("intrinsics.json", ("fx",), "500"),
        ("intrinsics.json", (), {"fov_deg_horizontal": 60, "width": True, "height": True}),
        ("intrinsics.json", (), {"fov_deg_horizontal": 60, "width": 640.9, "height": 480}),
        ("intrinsics.json", (), {"fov_deg_horizontal": "60", "width": 640, "height": 480}),
        ("chain.json", ("joints", 0, "axis"), ["0", "0", "1"]),
        ("chain.json", ("joints", 0, "origin", "q"), [True, 0, 0, 0]),
        ("chain.json", ("joints", 0, "limits"), ["-1", "1"]),
        ("chain.json", ("reference_point", "link"), 7.9),
        ("chain.json", ("reference_point", "link"), True),
        ("ground_truth.json", ("translation_m",), ["0.1", 0, 0]),
    ],
    ids=["fx_string", "width_true", "width_fraction", "fov_string", "axis_strings", "q_true",
         "limits_strings", "link_fraction", "link_true", "translation_string"],
)  # fmt: skip
def test_strings_bools_and_fractions_for_numbers_exit_2_naming_the_file(
    tmp_path, noisy_scene, capsys, name, path, value
):
    bad = tmp_path / name
    bad.write_text(json.dumps(_with(json.loads((noisy_scene / name).read_text()), path, value)))
    if name == "ground_truth.json":
        argv = ["eval", "--est", str(bad), "--gt", str(noisy_scene / name)]
    else:
        argv = _calibrate_args(noisy_scene, output=tmp_path / "r.json", **{name[:-5]: bad})
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "path, value",
    [(("name",), None), (("joints", 0, "name"), 7), (("joints", 0, "kind"), None)],
    ids=["chain_name_null", "joint_name_7", "joint_kind_null"],
)
def test_non_strings_for_chain_strings_exit_2_naming_the_file(
    tmp_path, noisy_scene, capsys, path, value
):
    bad = tmp_path / "chain.json"
    doc = json.loads((noisy_scene / "chain.json").read_text())
    bad.write_text(json.dumps(_with(doc, path, value)))
    capsys.readouterr()
    assert main(_calibrate_args(noisy_scene, chain=bad, output=tmp_path / "r.json")) == 2
    err = capsys.readouterr().err
    assert f"error: {bad}: bad chain file: " in err
    assert "must be a string" in err
    assert "Traceback" not in err


def test_chain_quaternion_of_1e200_normalizes_and_survives_export(tmp_path):
    # [1e200, 0, 0, 0] is the identity rotation; its square overflows, which
    # once cached a zero quaternion that the exported chain file then carried.
    doc = json.loads(Path(_chain()).read_text())
    doc["joints"][1]["origin"]["q"] = [1e200, 0, 0, 0]
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(doc))
    scene = tmp_path / "scene"
    assert main(["simulate", "--seed", "5", "--chain", str(chain), "-o", str(scene)]) == 0
    exported = json.loads((scene / "chain.json").read_text())
    assert exported["joints"][1]["origin"]["q"] == [1, 0, 0, 0]
    assert main(_calibrate_args(scene)) == 0


@pytest.mark.parametrize(
    "command, values, bad",
    [
        ("sweep-noise", ["--sigmas", "0,2", "--repeats", "0"], "got 0"),
        ("sweep-noise", ["--sigmas", "0,2", "--repeats", "-2"], "got -2"),
        ("sweep-frames", ["--counts", "4,20", "--repeats", "0"], "got 0"),
        ("sweep-noise", ["--sigmas", "0,nan", "--repeats", "1"], "sigma=nan"),
        ("sweep-frames", ["--counts", "4,20", "--sigma", "inf", "--repeats", "1"], "sigma=inf"),
        ("sweep-noise", ["--sigmas", "a,b", "--repeats", "1"], "bad list 'a,b'"),
        ("sweep-noise", ["--sigmas", ",", "--repeats", "1"], "empty value list ','"),
        ("sweep-frames", ["--counts", "4.5", "--repeats", "1"], "bad list '4.5'"),
    ],
)
def test_bad_sweep_values_exit_2_without_traceback(tmp_path, command, values, bad):
    out = tmp_path / "sweep.csv"
    proc = _run_cli(command, "--seed", "1", "--chain", _chain(), *values, "-o", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert bad in proc.stderr
    assert not out.exists()


def test_simulate_non_finite_sigma_exits_2_without_traceback(tmp_path):
    proc = _run_cli("simulate", "--seed", "1", "--chain", _chain(), "--sigma", "nan",
                    "-o", str(tmp_path / "scene"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "sigma=nan" in proc.stderr


@pytest.mark.parametrize(
    "command, values",
    [
        ("simulate", ["--sigma", "1e308"]),
        ("sweep-frames", ["--counts", "4,20", "--sigma", "1e308", "--repeats", "1"]),
        ("sweep-noise", ["--sigmas", "0,1e308", "--repeats", "1"]),
    ],
)
def test_a_sigma_whose_noise_overflows_exits_2_naming_sigma(tmp_path, command, values):
    out = tmp_path / "out"
    proc = _run_cli(command, "--seed", "1", "--chain", _chain(), *values, "-o", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "sigma=1e+308" in proc.stderr
    assert not out.exists()


def test_main_builds_its_parser_once(tmp_path, capsys):
    # Building the parser costs more than a parse; main reuses one parser
    # per process, and a parse leaves it fit for the next.
    from refcal.cli import _build_parser
    from refcal.fileio import write_pose_file
    from refcal.geometry import identity

    pose = tmp_path / "pose.json"
    write_pose_file(identity(), pose)
    _build_parser.cache_clear()
    for _ in range(3):
        assert main(["eval", "--est", str(pose), "--gt", str(pose)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--est", str(pose)])
    assert exc.value.code == 2
    assert main(["eval", "--est", str(pose), "--gt", str(pose)]) == 0
    assert _build_parser.cache_info().misses == 1


@pytest.fixture(scope="module")
def noisy_scene(tmp_path_factory):
    scene = tmp_path_factory.mktemp("capture") / "scene"
    assert main(["simulate", "--seed", "5", "--chain", _chain(), "--sigma", "1.0",
                 "-o", str(scene)]) == 0
    return scene


def _spliced(original: bytes):
    """The bytes of a valid file with one span of it replaced by arbitrary bytes."""
    return st.tuples(
        st.integers(0, len(original)), st.integers(0, 64), st.binary(max_size=64)
    ).map(lambda cut: original[: cut[0]] + cut[2] + original[cut[0] + cut[1]:])


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_calibrate_on_arbitrary_bytes_keeps_the_exit_code_contract(tmp_path, noisy_scene, data):
    # Whatever the joint log or track file holds, calibrate exits 0, 2 or 3
    # and reports an error as a message, never as a traceback.
    name = data.draw(st.sampled_from(["joints.csv", "track.csv"]))
    original = (noisy_scene / name).read_bytes()
    bad = tmp_path / name
    bad.write_bytes(data.draw(st.one_of(st.binary(), _spliced(original))))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(_calibrate_args(
            noisy_scene, **{name.removesuffix(".csv"): bad}, output=tmp_path / "result.json"
        ))
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE)
    assert "Traceback" not in stderr.getvalue()


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_calibrate_and_eval_on_fuzzed_json_keep_the_exit_code_contract(tmp_path, noisy_scene, data):
    # One leaf of the chain, intrinsics or estimated pose file is replaced;
    # calibrate or eval exits 0, 2 or 3 and raises nothing.
    name = data.draw(st.sampled_from(["chain.json", "intrinsics.json", "ground_truth.json"]))
    doc = json.loads((noisy_scene / name).read_text())
    path = data.draw(st.sampled_from(leaf_paths(doc)))
    bad = tmp_path / name
    bad.write_text(json.dumps(replaced(doc, path, data.draw(JSON_LEAVES))))
    if name == "ground_truth.json":
        argv = ["eval", "--est", str(bad), "--gt", str(noisy_scene / name)]
    else:
        argv = _calibrate_args(noisy_scene, output=tmp_path / "r.json", **{name[:-5]: bad})
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_DEGENERATE)
