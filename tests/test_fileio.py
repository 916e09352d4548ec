import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_pose
from refcal.calibration import CalibrationOptions, CalibrationRequest, Mode, Track2D, calibrate
from refcal.errors import NonMonotoneFrames, ParseError, SchemaMismatch, TooFewPairs
from refcal.fileio import (
    ResultDocument,
    check_joint_count,
    file_digest,
    fmt_float,
    parse_chain_file,
    parse_intrinsics_file,
    parse_joint_log_csv,
    parse_pose_file,
    parse_result_file,
    parse_track_csv,
    write_chain_file,
    write_intrinsics_file,
    write_joint_log_csv,
    write_pose_file,
    write_result,
    write_track_csv,
)
from refcal.geometry import CameraIntrinsics
from refcal.kinematics import JointLog, KinematicChain, ReferencePoint


def test_fmt_float_roundtrips():
    vals = [0.1, 1.0 / 3.0, 1e-300, 1e300, -9.87654321e-5, 2.0, 0.0, math.pi]
    for v in vals:
        assert float(fmt_float(v)) == v
    with pytest.raises(ValueError):
        fmt_float(math.nan)


# ------------------------------------------------------------------ track ---


def test_track_parse_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,u,v,visible,sync\n0,100.5,200.25,1,1\n")
    track = parse_track_csv(p)
    assert track.n_frames == 1
    assert track.frame_index[0] == 0
    assert_allclose(track.uv[0], (100.5, 200.25))
    assert track.visible[0] and track.sync[0]


def test_track_header_only_is_valid_but_unusable(tmp_path, panda):
    p = tmp_path / "t.csv"
    p.write_text("frame,u,v,visible,sync\n")
    track = parse_track_csv(p)
    assert track.n_frames == 0
    chain, ref = panda
    req = CalibrationRequest(
        mode=Mode.EYE_ON_BASE,
        chain=chain,
        ref=ref,
        intrinsics=CameraIntrinsics.from_horizontal_fov(60.0, 640, 480),
        track=track,
        joints=JointLog(np.arange(5), np.arange(5) / 30.0, np.zeros((5, 7))),
    )
    with pytest.raises(TooFewPairs):
        calibrate(req)


def test_track_invisible_row_empty_uv(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,u,v,visible,sync\n0,,,0,1\n1,5.0,6.0,1,1\n")
    track = parse_track_csv(p)
    assert not track.visible[0]
    assert math.isnan(track.uv[0, 0])


def test_track_visible_row_missing_uv_rejected(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,u,v,visible,sync\n0,,200.0,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_track_csv(p)
    assert err.value.line == 2


def test_track_non_monotone_frames(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,u,v,visible,sync\n0,1,1,1,1\n0,2,2,1,1\n")
    with pytest.raises(NonMonotoneFrames):
        parse_track_csv(p)
    p.write_text("frame,u,v,visible,sync\n5,1,1,1,1\n3,2,2,1,1\n")
    with pytest.raises(NonMonotoneFrames):
        parse_track_csv(p)


def test_track_bad_header_and_flags(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,x,y,visible,sync\n")
    with pytest.raises(ParseError):
        parse_track_csv(p)
    p.write_text("frame,u,v,visible,sync\n0,1,1,2,1\n")
    with pytest.raises(ParseError):
        parse_track_csv(p)


def test_track_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    n = 50
    uv = rng.uniform(0, 1920, (n, 2))
    visible = rng.random(n) > 0.2
    uv[~visible] = np.nan
    from refcal.calibration import Track2D

    track = Track2D(np.arange(n) * 2, uv, visible, rng.random(n) > 0.5)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_track_csv(track, p1)
    again = parse_track_csv(p1)
    write_track_csv(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(again.uv, track.uv, equal_nan=True)


# -------------------------------------------------------------- joint log ---


def test_joint_log_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(2)
    log = JointLog(np.arange(20), rng.random(20).cumsum(), rng.normal(size=(20, 7)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_joint_log_csv(log, p1)
    again = parse_joint_log_csv(p1)
    write_joint_log_csv(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(again.positions, log.positions)
    assert np.array_equal(again.timestamps, log.timestamps)


def test_joint_log_header_validation(tmp_path):
    p = tmp_path / "j.csv"
    p.write_text("frame,t,q1\n0,0.0,0.5\n")
    with pytest.raises(ParseError):
        parse_joint_log_csv(p)
    p.write_text("frame,t,j1,j3\n0,0.0,0.5,0.4\n")
    with pytest.raises(ParseError):
        parse_joint_log_csv(p)


def test_joint_log_non_monotone(tmp_path):
    p = tmp_path / "j.csv"
    p.write_text("frame,t,j1\n1,0.0,0.5\n1,0.1,0.6\n")
    with pytest.raises(NonMonotoneFrames):
        parse_joint_log_csv(p)


@pytest.mark.parametrize(
    "row, column",
    [("1,0.1,nan,0.2", 3), ("1,inf,0.5,0.2", 2), ("1,0.1,0.5,-inf", 4)],
)
def test_joint_log_rejects_non_finite(tmp_path, row, column):
    p = tmp_path / "j.csv"
    p.write_text(f"frame,t,j1,j2\n0,0.0,0.5,0.1\n{row}\n")
    with pytest.raises(ParseError) as err:
        parse_joint_log_csv(p)
    assert (err.value.path, err.value.line, err.value.column) == (p, 3, column)
    assert f"{p}:3:{column}" in str(err.value)


@pytest.mark.parametrize(
    "row, column",
    [("1,inf,200.0,1,1", 2), ("1,10.0,nan,1,1", 3), ("1,-inf,5.0,1,0", 2)],
)
def test_track_visible_row_rejects_non_finite(tmp_path, row, column):
    p = tmp_path / "t.csv"
    p.write_text(f"frame,u,v,visible,sync\n0,1.0,2.0,1,1\n{row}\n")
    with pytest.raises(ParseError) as err:
        parse_track_csv(p)
    assert (err.value.path, err.value.line, err.value.column) == (p, 3, column)
    assert f"{p}:3:{column}" in str(err.value)


def test_schema_mismatch_joint_count(panda, tmp_path):
    chain, _ = panda  # 7 actuated joints
    log = JointLog(np.arange(3), np.arange(3) / 30.0, np.zeros((3, 6)))
    with pytest.raises(SchemaMismatch):
        check_joint_count(chain, log)


# ------------------------------------------------------------------ chain ---


def test_chain_roundtrip_bit_exact(panda, tmp_path):
    chain, ref = panda
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_chain_file(chain, ref, p1)
    chain2, ref2 = parse_chain_file(p1)
    write_chain_file(chain2, ref2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for j1, j2 in zip(chain.joints, chain2.joints):
        assert np.array_equal(j1.origin.translation, j2.origin.translation)
        assert j1.limits == j2.limits


def test_chain_single_revolute_roundtrip(tmp_path):
    from refcal.geometry import identity
    from refcal.kinematics import Joint

    chain = KinematicChain("tiny", (Joint("j1", "revolute", identity()),))
    ref = ReferencePoint(1, (0.5, 0.0, 0.0))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_chain_file(chain, ref, p1)
    c2, r2 = parse_chain_file(p1)
    write_chain_file(c2, r2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_chain_rejects_bad_axis_and_ref(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(
        '{"name": "x", "joints": [{"name": "j1", "kind": "revolute",'
        ' "axis": [0, 0, 2], "origin": {"t": [0, 0, 0], "q": [1, 0, 0, 0]}}],'
        ' "reference_point": {"link": 1, "offset": [0, 0, 0]}}'
    )
    with pytest.raises(ParseError):
        parse_chain_file(p)
    p.write_text(
        '{"name": "x", "joints": [{"name": "j1", "kind": "revolute",'
        ' "axis": [0, 0, 1], "origin": {"t": [0, 0, 0], "q": [1, 0, 0, 0]}}],'
        ' "reference_point": {"link": 7, "offset": [0, 0, 0]}}'
    )
    with pytest.raises(ParseError):
        parse_chain_file(p)


def test_chain_rejects_malformed_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_chain_file(p)


# ------------------------------------------------------------- intrinsics ---


def test_intrinsics_roundtrip(tmp_path):
    k = CameraIntrinsics(fx=611.5, fy=609.25, cx=321.125, cy=239.5, width=640, height=480)
    p = tmp_path / "k.json"
    write_intrinsics_file(k, p)
    assert parse_intrinsics_file(p) == k


def test_intrinsics_fov_shorthand(tmp_path):
    p = tmp_path / "k.json"
    p.write_text('{"fov_deg_horizontal": 60, "width": 1920, "height": 1080}')
    k = parse_intrinsics_file(p)
    assert k.fx == pytest.approx(1662.7687752661222, abs=1e-9)
    assert k.cx == 960.0 and k.cy == 540.0


def test_intrinsics_rejects_partial(tmp_path):
    p = tmp_path / "k.json"
    p.write_text('{"fx": 500, "fy": 500, "width": 640, "height": 480}')
    with pytest.raises(ParseError):
        parse_intrinsics_file(p)


# ------------------------------------------------------------------ poses ---


def test_pose_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    pose = random_pose(rng)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_pose_file(pose, p1)
    again = parse_pose_file(p1)
    write_pose_file(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(again.translation, pose.translation)


def test_pose_file_rejects_non_unit_quaternion(tmp_path):
    p = tmp_path / "p.json"
    p.write_text(
        '{"translation_m": [0, 0, 0], "quaternion_wxyz": [1.1, 0, 0, 0],'
        ' "matrix_row_major": []}'
    )
    with pytest.raises(ParseError):
        parse_pose_file(p)


@pytest.mark.parametrize(
    "body",
    [
        '{"translation_m": 0.5, "quaternion_wxyz": [1, 0, 0, 0]}',
        '{"translation_m": [0, 0, 0], "quaternion_wxyz": 1}',
        '{"translation_m": ["a", 0, 0], "quaternion_wxyz": [1, 0, 0, 0]}',
        '{"translation_m": [0, 0, NaN], "quaternion_wxyz": [1, 0, 0, 0]}',
        '{"pose": 3}',
    ],
)
def test_pose_file_rejects_malformed_vectors(tmp_path, body):
    p = tmp_path / "p.json"
    p.write_text(body)
    with pytest.raises(ParseError) as err:
        parse_pose_file(p)
    assert err.value.path == p


def test_chain_rejects_one_element_limits(panda, tmp_path):
    chain, ref = panda
    p = tmp_path / "c.json"
    write_chain_file(chain, ref, p)
    p.write_text(p.read_text().replace("[-2.8973, 2.8973]", "[-2.8973]", 1))
    with pytest.raises(ParseError) as err:
        parse_chain_file(p)
    assert err.value.path == p
    assert "limits" in str(err.value)


# ----------------------------------------------------------------- result ---


def _result_doc(panda):
    chain, ref = panda
    from refcal.simulation import ScenarioConfig, generate_scene

    scene = generate_scene(ScenarioConfig(seed=30), chain, ref)
    req = CalibrationRequest(
        mode=Mode.EYE_ON_BASE,
        chain=chain,
        ref=ref,
        intrinsics=ScenarioConfig(seed=30).camera,
        track=scene.clean_track,
        joints=scene.joint_log,
        options=CalibrationOptions(min_pairs=4),
    )
    result = calibrate(req)
    return ResultDocument.from_calibration(
        Mode.EYE_ON_BASE, result, {"chain": "sha256:0", "track": "sha256:1"}
    )


def test_result_roundtrip_preserves_pose_bits(panda, tmp_path):
    doc = _result_doc(panda)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_result(doc, p1)
    again = parse_result_file(p1)
    write_result(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    doc3 = parse_result_file(p2)
    assert np.array_equal(doc3.pose.translation, again.pose.translation)
    assert np.array_equal(doc3.pose.rotation, again.pose.rotation)
    assert doc3.rms_reprojection_px == again.rms_reprojection_px
    assert doc3.dropped == again.dropped


def test_result_document_fields(panda, tmp_path):
    doc = _result_doc(panda)
    p = tmp_path / "r.json"
    write_result(doc, p)
    text = p.read_text()
    assert '"mode": "eye_on_base"' in text
    assert '"rotation_error_metric": "geodesic_angle_rad"' in text
    assert '"tool_version"' in text
    assert '"inputs"' in text
    back = parse_result_file(p)
    assert back.condition == "well_conditioned"
    assert back.n_pairs_used == doc.n_pairs_used


def test_eval_accepts_result_documents(panda, tmp_path):
    doc = _result_doc(panda)
    p = tmp_path / "r.json"
    write_result(doc, p)
    pose = parse_pose_file(p)  # result docs carry a pose object
    assert np.array_equal(pose.translation, doc.pose.translation)


def test_file_digest(tmp_path):
    p = tmp_path / "x"
    p.write_bytes(b"hello")
    assert file_digest(p) == (
        "sha256:2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
    )


# ---------------------------------------------------- non-finite numbers ---


def _chain_text(axis_z="1", origin_z="0", offset_z="0"):
    return (
        '{"name": "x", "joints": [{"name": "j1", "kind": "revolute",'
        f' "axis": [0, 0, {axis_z}], "origin": {{"t": [0, 0, {origin_z}], "q": [1, 0, 0, 0]}}}}],'
        f' "reference_point": {{"link": 1, "offset": [0, 0, {offset_z}]}}}}'
    )


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_chain_file, _chain_text(axis_z="NaN"), 1, 76),
        (parse_chain_file, _chain_text(origin_z="NaN"), 1, 103),
        (parse_chain_file, _chain_text(offset_z="1e999"), 1, 177),
        (parse_chain_file,
         _chain_text(offset_z="1e999").replace('"x"', '"x 1e999"').replace("], ", "],\n  "), 4, 51),
        (parse_intrinsics_file,
         '{"fx": Infinity, "fy": 500, "cx": 320, "cy": 240, "width": 640, "height": 480}', 1, 8),
        (parse_pose_file, '{"translation_m": [0, -Infinity, 0], "quaternion_wxyz": [1, 0, 0, 0]}',
         1, 23),
    ],
    ids=["chain_axis_nan", "chain_origin_nan", "chain_offset_1e999",
         "chain_offset_1e999_after_a_string_holding_it", "intrinsics_inf", "pose_minus_inf"],
)  # fmt: skip
def test_json_files_reject_non_finite_numbers(tmp_path, parse, text, line, column):
    p = tmp_path / "f.json"
    p.write_text(text)
    with pytest.raises(ParseError, match="non-finite number") as err:
        parse(p)
    assert err.value.path == p
    assert (err.value.line, err.value.column) == (line, column)


def test_result_file_rejects_non_finite_numbers(panda, tmp_path):
    p = tmp_path / "r.json"
    write_result(_result_doc(panda), p)
    text = p.read_text()
    head, tail = text.split('"rms_reprojection_px": ')
    p.write_text(head + '"rms_reprojection_px": NaN' + tail[tail.index(","):])
    with pytest.raises(ParseError, match="non-finite number NaN") as err:
        parse_result_file(p)
    assert err.value.path == p


# ------------------------------------------------ malformed input, any reader ---


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_joint_log_csv, "frame,t,j1\n99999999999999999999999,0.0,0.5\n"),
        (parse_track_csv, "frame,u,v,visible,sync\n99999999999999999999999,1.0,2.0,1,1\n"),
    ],
    ids=["joints", "track"],
)
def test_csv_frame_index_beyond_int64_is_a_parse_error(tmp_path, parse, text):
    p = tmp_path / "f.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match="99999999999999999999999") as err:
        parse(p)
    assert (err.value.path, err.value.line, err.value.column) == (p, 2, 1)


@pytest.mark.parametrize(
    "parse, data, line",
    [
        (parse_joint_log_csv, b"frame,t,j1\n0,0.0,0.5\n1,0.1,0.\xff6\n", 3),
        (parse_track_csv, b"frame,u,v,visible,sync\n0,1.0,2\xff.0,1,1\n", 2),
        (parse_track_csv, b"frame,u,v,visible,sync\r0,1.0,2.0,1,1\r1,1.0,2\xff.0,1,1\r", 3),
        (parse_chain_file, b'{"name": "x\xff",\n "joints": []}', 1),
    ],
    ids=["joints", "track", "track_bare_cr_line_ends", "chain"],
)
def test_input_that_is_not_utf8_is_a_parse_error_naming_the_file(tmp_path, parse, data, line):
    p = tmp_path / "f"
    p.write_bytes(data)
    with pytest.raises(ParseError, match="not UTF-8") as err:
        parse(p)
    assert (err.value.path, err.value.line) == (p, line)


@pytest.mark.parametrize(
    "row, message",
    [(b"1,1.0,2.0,x,1", "visible must be 0 or 1"), (b"1,1.0,2\xff.0,1,1", "not UTF-8")],
)
def test_csv_errors_name_the_physical_line_after_a_field_spanning_lines(tmp_path, row, message):
    # The quoted u of frame 0 spans lines 2 and 3, so frame 1's record is on line 4.
    p = tmp_path / "t.csv"
    p.write_bytes(b'frame,u,v,visible,sync\n0,"1.0\n",2.0,1,1\n' + row + b"\n")
    with pytest.raises(ParseError, match=message) as err:
        parse_track_csv(p)
    assert (err.value.path, err.value.line) == (p, 4)


def test_csv_field_past_the_csv_size_limit_is_a_parse_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("frame,u,v,visible,sync\n0,1.0,2.0,1,1\n1," + "1" * 200_000 + ",2.0,1,1\n")
    with pytest.raises(ParseError) as err:
        parse_track_csv(p)
    assert (err.value.path, err.value.line) == (p, 3)


_FIELDS = st.sampled_from(
    ["0", "1", "2", "7", "-3", " 4", "1.5", "nan", "-inf", "1e999", "", " ", "x", '"1"',
     "99999999999999999999999"]
)  # fmt: skip
_ROWS = st.lists(st.lists(_FIELDS, min_size=3, max_size=6).map(",".join), max_size=6)
_CSV_TEXT = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["frame,t,j1,j2", "frame,u,v,visible,sync"]), _ROWS).map(
        lambda parts: "\n".join([parts[0], *parts[1]]) + "\n"
    ),
)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    parse=st.sampled_from([parse_joint_log_csv, parse_track_csv]),
    data=st.one_of(_CSV_TEXT.map(str.encode), st.binary()),
)
def test_csv_parsers_return_a_table_or_raise_a_located_parse_error(tmp_path, parse, data):
    p = tmp_path / "f.csv"
    p.write_bytes(data)
    try:
        result = parse(p)
    except ParseError as exc:
        assert exc.path == p
        assert exc.line is not None
    else:
        assert isinstance(result, JointLog if parse is parse_joint_log_csv else Track2D)


# Leaves of a valid JSON document are replaced by these, one or two at a time.
_JSON_LEAVES = st.sampled_from(
    [1e200, -1e200, 5e-324, 10**400, -(10**400), True, False, None, "", "x", "1", "nan", "inf",
     [], [1.0, 2.0], [[0, 0, 0]], {}, {"w": 1}]
)  # fmt: skip


def _leaf_paths(doc, path=()):
    """The key path of every scalar in a JSON document."""
    if isinstance(doc, (dict, list)):
        keys = doc.keys() if isinstance(doc, dict) else range(len(doc))
        return [leaf for k in keys for leaf in _leaf_paths(doc[k], (*path, k))]
    return [path]


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _numbers(obj) -> list:
    """Every float and array inside a parsed object."""
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in _numbers(getattr(obj, f.name))]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in _numbers(item)]
    return [obj] if isinstance(obj, (float, np.ndarray)) else []


@pytest.fixture(scope="module")
def json_documents(tmp_path_factory, panda):
    """(parser, valid document) for each JSON input format."""
    out = tmp_path_factory.mktemp("json")
    write_chain_file(*panda, out / "chain.json")
    write_pose_file(random_pose(np.random.default_rng(3)), out / "pose.json")
    doc = ResultDocument(
        "eye_on_base", random_pose(np.random.default_rng(4)), 0.5, 10,
        ((3, "not_visible"), (8, "not_synced")), "well_conditioned", input_digests={"chain": "x"},
    )  # fmt: skip
    write_result(doc, out / "result.json")
    read = [json.loads((out / f"{name}.json").read_text()) for name in ("chain", "pose", "result")]
    return [
        (parse_chain_file, read[0]),
        (parse_intrinsics_file, {"fx": 500.0, "fy": 510.0, "cx": 320.0, "cy": 240.0, "width": 640,
                                 "height": 480}),
        (parse_intrinsics_file, {"fov_deg_horizontal": 60.0, "width": 1920, "height": 1080}),
        (parse_pose_file, read[1]),
        (parse_result_file, read[2]),
    ]  # fmt: skip


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_json_parsers_return_or_raise_a_parse_error(tmp_path, json_documents, data):
    # RuntimeWarnings are errors under the suite's warning filter.
    parse, doc = data.draw(st.sampled_from(json_documents))
    for path in data.draw(st.lists(st.sampled_from(_leaf_paths(doc)), min_size=1, max_size=2)):
        doc = _replaced(doc, path, data.draw(_JSON_LEAVES))
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    try:
        result = parse(p)
    except ParseError as exc:
        assert exc.path == p
    else:
        assert all(np.all(np.isfinite(x)) for x in _numbers(result))
