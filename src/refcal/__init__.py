"""Markerless camera-to-robot calibration from a tracked reference point.

A single point rigidly attached to the kinematic chain is tracked in 2D
while joint readings locate it in 3D through forward kinematics; solving
the resulting Perspective-n-Point problem yields the camera-to-base
(eye-on-base) or camera-to-end-effector (eye-in-hand) transform.  The
package also ships a synthetic benchmark for accuracy, frame-count, and
noise-sensitivity studies, and a classical AX=XB solver as a baseline.
"""

from ._version import __version__
from .calibration import (
    CalibrationOptions,
    CalibrationRequest,
    CalibrationResult,
    Mode,
    Track2D,
    calibrate,
    calibrate_each,
    select_frames,
    solve_axxb,
)
from .geometry import (
    CameraIntrinsics,
    Pose,
    apply,
    compose,
    identity,
    invert,
    project,
    rotation_error,
    translation_error,
    unproject,
)
from .kinematics import (
    Joint,
    JointLog,
    KinematicChain,
    ReferencePoint,
    base_point_in_ee_frame,
    end_effector_pose,
    forward_kinematics,
    reference_point_in_base,
)
from .pnp import (
    DegeneracyReport,
    PnPSolution,
    PoseStack,
    check_degeneracy,
    refine_pose,
    solve_pnp,
    solve_pnp_linear,
)
from .simulation import (
    GroundTruthScene,
    NoiseModel,
    PoseError,
    ScenarioConfig,
    corrupt_track,
    evaluate,
    export_scene,
    generate_scene,
    run_frames_sweep,
    run_noise_sweep,
)

__all__ = [
    "__version__",
    "CalibrationOptions",
    "CalibrationRequest",
    "CalibrationResult",
    "CameraIntrinsics",
    "DegeneracyReport",
    "GroundTruthScene",
    "Joint",
    "JointLog",
    "KinematicChain",
    "Mode",
    "NoiseModel",
    "PnPSolution",
    "Pose",
    "PoseError",
    "PoseStack",
    "ReferencePoint",
    "ScenarioConfig",
    "Track2D",
    "apply",
    "base_point_in_ee_frame",
    "calibrate",
    "calibrate_each",
    "check_degeneracy",
    "compose",
    "corrupt_track",
    "end_effector_pose",
    "evaluate",
    "export_scene",
    "forward_kinematics",
    "generate_scene",
    "identity",
    "invert",
    "project",
    "reference_point_in_base",
    "refine_pose",
    "rotation_error",
    "run_frames_sweep",
    "run_noise_sweep",
    "select_frames",
    "solve_axxb",
    "solve_pnp",
    "solve_pnp_linear",
    "translation_error",
    "unproject",
]
