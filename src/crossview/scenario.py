"""Seeded synthetic traffic with per-modality detector simulation.

Agents spawn by per-class Poisson draws, travel in straight grid-aligned
lines, and despawn once their center leaves the grid.  Each frame, each
modality detects an agent with the probability p that
``visibility.detection_probability`` gives for the selected mounts at the
agent's cell, 1 - prod(1 - v), the same model the optimizer's seen test
thresholds; it then corrupts the box with Gaussian noise and scores it p.

Traffic and the detectors draw from two independent seeded streams, so
the same seed produces identical ground truth no matter which mounts are
selected; only the detections change between deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import CLASSES, DetectionBox
from .placement import Selection
from .scene import LIDAR, RADAR, Scene
from .visibility import VisibilityMatrix, detection_probability

CLASS_SIZES = {
    "car": (4.5, 1.9, 1.6),
    "truck": (8.0, 2.5, 3.2),
    "motorcycle": (2.2, 0.8, 1.4),
    "bus": (11.0, 2.9, 3.3),
    "pedestrian": (0.6, 0.6, 1.7),
    "golf_cart": (2.4, 1.2, 1.8),
}

DEFAULT_CLASS_MIX = {
    "car": 0.40,
    "truck": 0.10,
    "motorcycle": 0.08,
    "bus": 0.05,
    "pedestrian": 0.25,
    "golf_cart": 0.04,
}

DEFAULT_SPEED_RANGES = {
    "car": (5.0, 15.0),
    "truck": (4.0, 12.0),
    "motorcycle": (5.0, 18.0),
    "bus": (4.0, 10.0),
    "pedestrian": (0.5, 2.0),
    "golf_cart": (2.0, 8.0),
}

DROPOUT_RULES = ("visibility", "none")

MIN_SIZE = 0.05


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian detector noise; zero sigmas reproduce truth exactly."""

    position_sigma: float = 0.0
    size_sigma: float = 0.0
    yaw_sigma: float = 0.0
    velocity_sigma: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.position_sigma, self.size_sigma,
                  self.yaw_sigma, self.velocity_sigma):
            if v < 0:
                raise ValueError("noise sigmas must be nonnegative")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    duration_frames: int = 100
    frame_dt_s: float = 0.1
    class_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_CLASS_MIX))
    speed_ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_SPEED_RANGES)
    )
    lidar_noise: NoiseSpec = NoiseSpec()
    radar_noise: NoiseSpec = NoiseSpec()
    dropout_rule: str = "visibility"

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.duration_frames < 0:
            raise ValueError("duration_frames must be nonnegative")
        if self.frame_dt_s <= 0:
            raise ValueError("frame_dt_s must be positive")
        if self.dropout_rule not in DROPOUT_RULES:
            raise ValueError(f"unknown dropout_rule {self.dropout_rule!r}")
        for label, rate in self.class_mix.items():
            if label not in CLASSES:
                raise ValueError(f"class_mix has unknown class {label!r}")
            if rate < 0:
                raise ValueError(f"class_mix rate for {label!r} must be nonnegative")
        for label, (lo, hi) in self.speed_ranges.items():
            if label not in CLASSES:
                raise ValueError(f"speed_ranges has unknown class {label!r}")
            if not 0 <= lo <= hi:
                raise ValueError(f"speed range for {label!r} must satisfy 0 <= lo <= hi")


@dataclass
class _Agent:
    class_label: str
    x: float
    y: float
    vx: float
    vy: float
    yaw: float


@dataclass(frozen=True)
class ScenarioFrames:
    """Per-frame box maps keyed by zero-padded frame id."""

    ground_truth: dict[str, list[DetectionBox]]
    lidar: dict[str, list[DetectionBox]]
    radar: dict[str, list[DetectionBox]]


def _noisy_box(
    agent: _Agent,
    size: tuple[float, float, float],
    noise: NoiseSpec,
    rng: np.random.Generator,
    score: float,
    source: str,
) -> DetectionBox:
    dx, dy, dz = rng.normal(0.0, noise.position_sigma, 3)
    sl, sw, sh = rng.normal(0.0, noise.size_sigma, 3)
    dyaw = rng.normal(0.0, noise.yaw_sigma)
    new_size = (
        max(size[0] + sl, MIN_SIZE),
        max(size[1] + sw, MIN_SIZE),
        max(size[2] + sh, MIN_SIZE),
    )
    velocity = None
    if source == RADAR:
        dvx, dvy = rng.normal(0.0, noise.velocity_sigma, 2)
        velocity = (agent.vx + dvx, agent.vy + dvy)
    return DetectionBox(
        center=(agent.x + dx, agent.y + dy, size[2] / 2.0 + dz),
        size=new_size,
        yaw=agent.yaw + dyaw,
        class_label=agent.class_label,
        score=score,
        source=source,
        velocity=velocity,
    )


def generate_scenario(
    scene: Scene,
    lidar_vis: VisibilityMatrix,
    radar_vis: VisibilityMatrix,
    selection: Selection,
    config: ScenarioConfig | None = None,
) -> ScenarioFrames:
    """Simulate traffic plus the two detector streams for a deployment."""
    config = config or ScenarioConfig()
    grid = scene.grid
    cells = scene.roi.sorted_cells()
    if lidar_vis.n_cells != len(cells) or radar_vis.n_cells != len(cells):
        raise ValueError("visibility matrices do not match the scene ROI")
    column_of = {j: k for k, j in enumerate(cells)}
    p_lidar = detection_probability(lidar_vis, selection.lidar_ids)
    p_radar = detection_probability(radar_vis, selection.radar_ids)

    x0, y0 = grid.origin_xy
    x1 = x0 + grid.nx * grid.cell_size
    y1 = y0 + grid.ny * grid.cell_size

    traffic_rng = np.random.default_rng([config.seed, 0])
    sensor_rng = np.random.default_rng([config.seed, 1])
    agents: list[_Agent] = []
    truth: dict[str, list[DetectionBox]] = {}
    lidar_out: dict[str, list[DetectionBox]] = {}
    radar_out: dict[str, list[DetectionBox]] = {}

    for step in range(config.duration_frames):
        moved = []
        for agent in agents:
            agent.x += agent.vx * config.frame_dt_s
            agent.y += agent.vy * config.frame_dt_s
            if x0 <= agent.x <= x1 and y0 <= agent.y <= y1:
                moved.append(agent)
        agents = moved

        for label in CLASSES:
            rate = config.class_mix.get(label, 0.0)
            if rate <= 0:
                continue
            for _ in range(int(traffic_rng.poisson(rate))):
                px = traffic_rng.uniform(x0, x1)
                py = traffic_rng.uniform(y0, y1)
                heading = float(traffic_rng.integers(4)) * (np.pi / 2.0)
                lo, hi = config.speed_ranges.get(label, (0.0, 0.0))
                speed = traffic_rng.uniform(lo, hi)
                agents.append(
                    _Agent(
                        class_label=label,
                        x=px,
                        y=py,
                        vx=speed * float(np.cos(heading)),
                        vy=speed * float(np.sin(heading)),
                        yaw=heading,
                    )
                )

        frame_id = f"{step:06d}"
        gt_boxes = []
        lidar_boxes = []
        radar_boxes = []
        for agent in agents:
            size = CLASS_SIZES[agent.class_label]
            gt_boxes.append(
                DetectionBox(
                    center=(agent.x, agent.y, size[2] / 2.0),
                    size=size,
                    yaw=agent.yaw,
                    class_label=agent.class_label,
                    score=1.0,
                    source="ground_truth",
                    velocity=(agent.vx, agent.vy),
                )
            )
            col = int((agent.x - x0) // grid.cell_size)
            row = int((agent.y - y0) // grid.cell_size)
            col = min(col, grid.nx - 1)
            row = min(row, grid.ny - 1)
            column = column_of.get(row * grid.nx + col)
            for source, probs, noise, sink in (
                (LIDAR, p_lidar, config.lidar_noise, lidar_boxes),
                (RADAR, p_radar, config.radar_noise, radar_boxes),
            ):
                p = 0.0 if column is None else float(probs[column])
                roll = sensor_rng.random()
                detected = config.dropout_rule == "none" or roll < p
                if detected:
                    sink.append(_noisy_box(agent, size, noise, sensor_rng, p, source))
        truth[frame_id] = gt_boxes
        lidar_out[frame_id] = lidar_boxes
        radar_out[frame_id] = radar_boxes

    return ScenarioFrames(ground_truth=truth, lidar=lidar_out, radar=radar_out)
