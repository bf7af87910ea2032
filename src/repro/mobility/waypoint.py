"""Mobility models: static, random waypoint, bounded random walk.

A mobility model owns a set of radios and updates their positions on a
fixed tick.  Position updates are piecewise-linear, which is how SWANS and
ns-2 implement random waypoint as well.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Sequence

from ..des.kernel import Simulator
from ..des.random import RandomStream
from ..des.timers import PeriodicTask
from ..radio.geometry import Area, Position
from ..radio.radio import Radio

__all__ = ["MobilityModel", "StaticMobility", "RandomWaypoint", "RandomWalk"]


class MobilityModel(ABC):
    """Base class: drives radios' positions over simulated time."""

    def __init__(self, sim: Simulator, radios: Sequence[Radio],
                 tick: float = 0.5):
        if tick <= 0:
            raise ValueError("tick must be positive")
        self._sim = sim
        self._radios = list(radios)
        self._tick = tick
        self._task = PeriodicTask(sim, tick, self._on_tick)

    def start(self) -> None:
        self._task.start()

    def stop(self) -> None:
        self._task.stop()

    def _on_tick(self) -> None:
        for radio in self._radios:
            radio.position = self.next_position(radio, self._tick)

    @abstractmethod
    def next_position(self, radio: Radio, dt: float) -> Position:
        """Position of ``radio`` after ``dt`` more seconds of movement."""


class StaticMobility(MobilityModel):
    """No movement; ``start`` is a no-op so no tick events are wasted."""

    def start(self) -> None:  # noqa: D102 - intentionally inert
        pass

    def next_position(self, radio: Radio, dt: float) -> Position:
        return radio.position


@dataclass
class _Leg:
    target: Position
    speed: float
    pause_until: float


class RandomWaypoint(MobilityModel):
    """Classic random waypoint: pick a destination, travel at a uniform
    speed, pause, repeat."""

    def __init__(self, sim: Simulator, radios: Sequence[Radio], area: Area,
                 rng: RandomStream, *, speed_min: float = 0.5,
                 speed_max: float = 2.0, pause_max: float = 5.0,
                 tick: float = 0.5):
        super().__init__(sim, radios, tick)
        if not 0 < speed_min <= speed_max:
            raise ValueError("need 0 < speed_min <= speed_max")
        self._area = area
        self._rng = rng
        self._speed_min = speed_min
        self._speed_max = speed_max
        self._pause_max = pause_max
        self._legs: Dict[int, _Leg] = {}

    def _new_leg(self, radio: Radio) -> _Leg:
        target = Position(self._rng.uniform(0.0, self._area.width),
                          self._rng.uniform(0.0, self._area.height))
        speed = self._rng.uniform(self._speed_min, self._speed_max)
        return _Leg(target=target, speed=speed, pause_until=0.0)

    def next_position(self, radio: Radio, dt: float) -> Position:
        leg = self._legs.get(radio.node_id)
        if leg is None:
            leg = self._new_leg(radio)
            self._legs[radio.node_id] = leg
        if self._sim.now < leg.pause_until:
            return radio.position
        current = radio.position
        dx = leg.target.x - current.x
        dy = leg.target.y - current.y
        remaining = math.hypot(dx, dy)
        step = leg.speed * dt
        if remaining <= step:
            pause = self._rng.uniform(0.0, self._pause_max)
            arrived = leg.target
            new_leg = self._new_leg(radio)
            new_leg.pause_until = self._sim.now + pause
            self._legs[radio.node_id] = new_leg
            return arrived
        scale = step / remaining
        return Position(current.x + dx * scale, current.y + dy * scale)


class RandomWalk(MobilityModel):
    """Bounded random walk with boundary reflection: each tick the node
    steps in a fresh uniform direction at a uniform speed."""

    def __init__(self, sim: Simulator, radios: Sequence[Radio], area: Area,
                 rng: RandomStream, *, speed_max: float = 1.5,
                 tick: float = 0.5):
        super().__init__(sim, radios, tick)
        if speed_max <= 0:
            raise ValueError("speed_max must be positive")
        self._area = area
        self._rng = rng
        self._speed_max = speed_max

    def next_position(self, radio: Radio, dt: float) -> Position:
        angle = self._rng.uniform(0.0, 2 * math.pi)
        step = self._rng.uniform(0.0, self._speed_max) * dt
        moved = radio.position.translated(step * math.cos(angle),
                                          step * math.sin(angle))
        return self._area.reflect(moved)
