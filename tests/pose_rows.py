"""Row-array inputs built from the reference pose objects, for tests written pose by pose.

The pipeline stages take logs or row arrays, and the filters take pose-row
events; these helpers turn the ``pose_objects.Pose`` objects a test spells
out into those forms, and pose-row events into node 2's twist events.
``pose_objects.poses`` goes the other way, from a log to its poses.
"""

import numpy as np

from coloc.dataio import TrajectoryLog
from coloc.ekf import MeasurementEvent, twist_measurements
from coloc.evaluation import AssociatedRows
from coloc.geometry import BODY_SMART, Agent
from coloc.perception import PairedRows


def arrays_of(poses):
    """Translations (n, 3) and scalar-last quaternions (n, 4) of a pose sequence."""
    t = np.array([p.translation for p in poses], dtype=float).reshape(-1, 3)
    q = np.array([p.rotation.as_array() for p in poses], dtype=float).reshape(-1, 4)
    return t, q


def log_of(poses, agent=None, metadata=None):
    """An ENU log of world poses; the agent follows from the first pose's body frame."""
    if agent is None:
        agent = Agent.SMART if poses and poses[0].child_frame == BODY_SMART else Agent.ADAS
    return TrajectoryLog(agent, "ENU", [p.timestamp for p in poses], *arrays_of(poses), metadata or {})


def paired_rows(smart, adas):
    """Leader and follower poses, pair by pair, stamped with the follower's stamps.

    The rows need not be time-ordered, so the two logs they are gathered
    from are stamped by row number; a pair carries its own stamp.
    """
    rows = np.arange(len(adas))
    stamps = np.array([p.timestamp for p in adas], dtype=float)
    leader = TrajectoryLog(Agent.SMART, "ENU", rows, *arrays_of(smart))
    follower = TrajectoryLog(Agent.ADAS, "ENU", rows, *arrays_of(adas))
    return PairedRows(stamps, leader, follower, rows, rows)


def associated_rows(pairs):
    """(estimate, ground truth) pose pairs as rows stamped with the estimate stamps."""
    est = [e for e, _ in pairs]
    gt = [g for _, g in pairs]
    return AssociatedRows(np.array([e.timestamp for e in est], dtype=float), *arrays_of(est), *arrays_of(gt))


def pose_event(kind, pose, r6):
    """The filter event of a pose: its stamp, parent frame and (x, y, z, roll, pitch, yaw) row."""
    z = [*pose.translation.tolist(), *pose.rotation.to_euler()]
    return MeasurementEvent(pose.timestamp, kind, pose.parent_frame, z, r6)


def twist_event(prev, cur):
    """Node 2's odometry event for the one-member pose-row event ``cur`` after ``prev``.

    As a run builds it, with :func:`coloc.ekf.twist_measurements`: the body
    twist between the two rows and its covariance (r6 + r6) / dt^2, ``cur``'s
    r6 standing for both rows as a run's one row covariance does; with
    ``prev`` None, the chain's first event, which carries no twist.
    """
    if prev is None:
        return tuple.__new__(MeasurementEvent, (cur.timestamp, cur.kind, cur.frame, None, None))
    ((z, r_vel),) = twist_measurements(np.array([prev.timestamp, cur.timestamp]), np.array([prev.z, cur.z]), cur.r6)
    return tuple.__new__(MeasurementEvent, (cur.timestamp, cur.kind, cur.frame, z, r_vel))
