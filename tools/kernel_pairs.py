"""Time the filter kernels of two source trees in one process, in alternating blocks.

Usage, from the repository root, with clean exports of the two commits:

    python3 tools/kernel_pairs.py --parent ../parent --change ../change \
        --members 1 3 12 60 --blocks 40

Each tree's ``src/coloc`` is loaded as its own package (``coloc_parent`` and
``coloc_change``), so both kernel sets run in one interpreter on the same
inputs.  For every member count B it times, in microseconds per call:

- ``predict``: ``_predict_kernel`` over one 5 ms step;
- ``update, wraps``: ``_update_kernel`` on the pose block with angle wraps;
- ``update, no wraps``: ``_update_kernel`` on the twist block;
- ``predict + update``: ``_predict_kernel`` and then ``_update_kernel``
  with wraps on the prediction's result in the workspace, the operands a
  node step's update gets (the update columns above feed held arrays, as
  an update at an unchanged clock does);
- ``finish``: ``_finish`` of the update's result;
- ``node1_step``: an ``EkfNode`` fusing pose rows at 200 Hz;
- ``node2_step``: an ``EkfNode`` fusing a twist row and then a perception
  row at each 200 Hz stamp, as a run's node-2 pass does.

A one-member kernel takes one member's 15x15 matrices, as a one-member node
does.  After one untimed block per side, the blocks alternate between the
trees, parent first on even blocks; each block makes ``--calls`` / B calls
(a quarter of that for the node steps, which each take one event).  The
table gives each side's median over its blocks and the number of block
pairs (block k of each side) the change won, ``12.2 → 10.3 (0.85, 28/30)``,
which tells a cell that moved in most pairs from one that a few slow
blocks moved.  Before timing, every kernel's outputs, and every node
step's state and returned rows, must be bit-equal between the two trees,
or the tool stops.

Both trees must have the kernel API of ``FilterNodeConfig(t0, x0, P0, q)``
and ``_update_kernel(x, P, lo, z, r6, angles, work)``.  ``_finish`` may take
the kernel result, ``_finish(x, P)``, or the workspace holding it,
``_finish(work)``.  The garbage collector is off while timing, as it is
during a run's filter stages.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import inspect
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

DT = 0.005  # 200 Hz, the acceptance run's rate
SIDES = ("parent", "change")
KERNELS = ("predict", "update_wraps", "update_no_wraps", "predict_update")


def load(tree: Path, name: str):
    """The ``ekf`` module of ``tree``'s coloc package, loaded as package ``name``."""
    package = tree / "src" / "coloc"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.ekf"]


def inputs(members: int, seed: int = 0) -> dict:
    """A filter state and one pose and one twist row per member, PSD covariances."""
    rng = np.random.default_rng(seed)
    x = np.concatenate((
        rng.normal(0.0, 10.0, (members, 3)),
        rng.uniform([-0.1, -0.1, -math.pi], [0.1, 0.1, math.pi], (members, 3)),
        rng.normal(0.0, 5.0, (members, 9)),
    ), axis=1)
    L = rng.normal(0.0, 0.3, (members, 15, 15))
    P = L @ L.mT + 1e-3 * np.eye(15)
    P = 0.5 * (P + P.mT)
    pose = x[:, :6] + rng.normal(0.0, 0.05, (members, 6))
    twist = x[:, 6:12] + rng.normal(0.0, 0.05, (members, 6))
    r6 = np.diag([0.04, 0.04, 1e-6, 1e-6, 1e-6, 0.01])
    return {"x": x, "P": P[0] if members == 1 else P, "pose": pose, "twist": twist, "r6": r6}


class Kernels:
    """One tree's kernel calls on one member count's inputs."""

    def __init__(self, ekf, members: int, data: dict) -> None:
        self.ekf, self.members, self.data = ekf, members, data
        self.work = ekf._Workspace(None if members == 1 else members)
        q_dt = ekf.default_process_noise() * DT
        self.q_dt = q_dt if members == 1 else np.tile(q_dt, (members, 1, 1))
        self.finish_takes_work = len(inspect.signature(ekf._finish).parameters) == 1

    def predict(self):
        d = self.data
        return self.ekf._predict_kernel(d["x"], d["P"], DT, self.q_dt, self.work)

    def update_wraps(self):
        d = self.data
        return self.ekf._update_kernel(d["x"], d["P"], 0, d["pose"], d["r6"], True, self.work)

    def update_no_wraps(self):
        d = self.data
        return self.ekf._update_kernel(d["x"], d["P"], 6, d["twist"], d["r6"], False, self.work)

    def predict_update(self):
        d = self.data
        x, P = self.predict()
        return self.ekf._update_kernel(x, P, 0, d["pose"], d["r6"], True, self.work)

    def finish_call(self):
        """A call that finishes the update's result, which it computes first."""
        x, P = self.update_wraps()
        if self.finish_takes_work:
            work = self.work
            return lambda: self.ekf._finish(work)
        return lambda: (x, self.ekf._finish(x, P))


def node_events(ekf, members: int, n: int, node: int, seed: int = 1) -> list:
    """``n`` stamps of events for node 1 (pose rows) or node 2 (a twist row,
    then a perception row, at each stamp), one row per member."""
    rng = np.random.default_rng(seed)
    new, event = tuple.__new__, ekf.MeasurementEvent
    odometry, perception = ekf.MeasurementKind.ODOMETRY_DIFFERENTIAL, ekf.MeasurementKind.PERCEPTION_ABSOLUTE
    t = DT * np.arange(1, n + 1)
    # a circle at 8 m/s, 0.2 rad/s, with noisy rows
    pose = np.zeros((n, members, 6))
    pose[:, :, 0] = (40.0 * np.sin(0.2 * t))[:, None]
    pose[:, :, 1] = (40.0 * (1.0 - np.cos(0.2 * t)))[:, None]
    pose[:, :, 5] = (np.remainder(0.2 * t + math.pi, 2.0 * math.pi) - math.pi)[:, None]
    pose += rng.normal(0.0, 0.05, pose.shape)
    r6 = np.diag([0.04, 0.04, 1e-6, 1e-6, 1e-6, 0.01])
    r6.flags.writeable = False
    if node == 1:
        return [new(event, (s, odometry, ekf.LOCAL, z, r6)) for s, z in zip(t.tolist(), pose)]
    twist = np.zeros((n, members, 6))
    twist[:, :, 0], twist[:, :, 5] = 8.0, 0.2
    twist += rng.normal(0.0, 0.05, twist.shape)
    r_vel = (r6 + r6) / (DT * DT)
    r_per = r6 if members == 1 else np.array([r6 * (1.0 + b) for b in range(members)])
    r_per.flags.writeable = False
    events = []
    for s, z_twist, z_pose in zip(t.tolist(), twist, pose):
        events.append(new(event, (s, odometry, ekf.LOCAL, z_twist, r_vel)))
        events.append(new(event, (s, perception, ekf.WORLD, z_pose, r_per)))
    return events


def node_at_start(ekf, members: int):
    x0, P0 = ekf.state_from_row([0.0] * 6)
    return ekf.EkfNode(ekf.FilterNodeConfig(0.0, x0, P0, ekf.default_process_noise()), members)


def bits(*arrays) -> list[bytes]:
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def check_kernels(kernels: dict[str, Kernels]) -> None:
    for name in KERNELS:
        got = {side: bits(*getattr(k, name)()) for side, k in kernels.items()}
        if got["parent"] != got["change"]:
            raise SystemExit(f"{name}: outputs differ at B={kernels['parent'].members}")
    got = {side: bits(*k.finish_call()()) for side, k in kernels.items()}
    if got["parent"] != got["change"]:
        raise SystemExit(f"finish: outputs differ at B={kernels['parent'].members}")


def check_nodes(ekfs: dict, members: int, n: int) -> None:
    for node_kind in (1, 2):
        seen = {}
        for side, ekf in ekfs.items():
            node, out = node_at_start(ekf, members), []
            step = node.node1_step if node_kind == 1 else node.node2_step
            for e in node_events(ekf, members, n, node_kind):
                rows = step(e)
                out += bits(node.x, node.P) + ([] if rows is None else bits(rows))
            seen[side] = out
        if seen["parent"] != seen["change"]:
            raise SystemExit(f"node{node_kind}_step: states differ at B={members}")


def alternate(blocks: int, calls: dict) -> dict[str, float]:
    """Median microseconds per call of each side's ``calls[side](k)``, which
    makes calls for block k and returns how many, and under ``wins`` the
    number of blocks k in which the change took less time per call."""
    for side in SIDES:  # one untimed block each, so that lazy set-up is done
        calls[side](0)
    times = {side: [] for side in SIDES}
    for k in range(blocks):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            t0 = perf_counter()
            n = calls[side](k)
            times[side].append((perf_counter() - t0) / n * 1e6)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return {**{side: statistics.median(v) for side, v in times.items()}, "wins": wins}


def repeat(fn, reps: int):
    def block(_k):
        for _ in range(reps):
            fn()
        return reps
    return block


def stepping(ekf, members: int, node_kind: int, blocks: int, reps: int):
    """Blocks of ``reps`` steps of a fresh node, each on the next events.

    The first call, the untimed warm-up, steps block 0's events on a node
    of its own.
    """
    timed, warm = (getattr(node_at_start(ekf, members), f"node{node_kind}_step") for _ in range(2))
    steps = [timed, warm]
    # node 2 takes two events per stamp
    events = node_events(ekf, members, blocks * reps // node_kind, node_kind)
    per_block = len(events) // blocks

    def block(k):
        step = steps.pop() if len(steps) > 1 else timed
        for e in events[k * per_block:(k + 1) * per_block]:
            step(e)
        return per_block
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree with src/coloc")
    parser.add_argument("--change", type=Path, required=True, help="source tree with src/coloc")
    parser.add_argument("--members", type=int, nargs="+", default=[1, 3, 12, 60])
    parser.add_argument("--blocks", type=int, default=40, help="blocks per side and kernel")
    parser.add_argument("--calls", type=float, default=2000.0,
                        help="kernel calls per block at B = 1; B members make calls / B")
    args = parser.parse_args(argv)

    ekfs = {side: load(getattr(args, side).resolve(), f"coloc_{side}") for side in SIDES}
    columns = ("predict", "update, wraps", "update, no wraps", "predict + update", "finish",
               "node1_step", "node2_step")
    print("µs per call, median of", args.blocks,
          "blocks per side: parent → change (change/parent, block pairs the change won)")
    print("| B | " + " | ".join(columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    gc.disable()
    try:
        for members in args.members:
            reps = max(4, int(args.calls / members))
            data = inputs(members)
            kernels = {side: Kernels(ekf, members, data) for side, ekf in ekfs.items()}
            check_kernels(kernels)
            check_nodes(ekfs, members, 50)
            medians = [
                alternate(args.blocks, {s: repeat(getattr(k, name), reps) for s, k in kernels.items()})
                for name in KERNELS
            ]
            medians.append(alternate(args.blocks, {s: repeat(k.finish_call(), reps) for s, k in kernels.items()}))
            for node_kind in (1, 2):
                node_reps = max(4, reps // 4)
                medians.append(alternate(args.blocks, {
                    s: stepping(ekf, members, node_kind, args.blocks, node_reps) for s, ekf in ekfs.items()
                }))
            cells = [
                f"{m['parent']:.1f} → {m['change']:.1f} ({m['change'] / m['parent']:.2f}, {m['wins']}/{args.blocks})"
                for m in medians
            ]
            print(f"| {members} | " + " | ".join(cells) + " |", flush=True)
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
