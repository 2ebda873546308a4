"""Ground-truth occupancy grid and the car's 5x5 lidar perception.

Coordinates: x grows rightward, y grows downward, (0,0) is the top-left cell.
Obstacles are axis-aligned rectangles anchored at their top-left cell; the
car occupies a single cell. A perception grid is a 5x5 window centered on
the car with one code per cell:

    C  the car itself
    F  free
    O  opaque obstacle            M  same, on a cell seen free last tick
    T  transparent obstacle       N  same, on a cell seen free last tick
    U  outside the map, or hidden behind an opaque obstacle

Visibility is computed by casting the segment between cell centers: a target
is hidden iff some strictly intermediate cell crossed by the segment holds an
opaque obstacle. Crossing counts closed cell squares, so a segment grazing a
corner crosses both cells sharing it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .values import Bool, Nat, Pos, Rec, Seq, Sym, Value, ValueError_

DIR_DELTAS = {
    "up": (0, -1),
    "down": (0, 1),
    "left": (-1, 0),
    "right": (1, 0),
    "none": (0, 0),
}
DIRECTIONS = ("up", "down", "left", "right", "none")
RANDOM_DIR = "random"

Cell = Tuple[int, int]


class GridError(ValueError):
    pass


# the perception maps hold width x height cells, allocated before exploring
MAX_GRID_CELLS = 65536
MOVE_WORDS = DIRECTIONS + (RANDOM_DIR,)


def _check_script(who: str, cyclic: bool, moves: Tuple[str, ...]) -> None:
    for m in moves:
        if m not in MOVE_WORDS:
            raise GridError(f"{who}: bad move {m!r}, expected one of {', '.join(MOVE_WORDS)}")
    if cyclic and not moves:
        raise GridError(f"{who}: cyclic without moves")


@dataclass(frozen=True)
class ObstacleRec:
    kind: str
    x: int
    y: int
    w: int = 1
    h: int = 1
    speed: int = 0
    direction: str = "none"
    transparent: bool = False
    cyclic: bool = False
    moves: Tuple[str, ...] = ()

    def __post_init__(self):
        try:
            Sym(self.kind)  # labels carry the kind as a symbol
        except ValueError_:
            raise GridError(f"obstacle kind {self.kind!r} is not a symbol name") from None
        if self.w < 1 or self.h < 1:
            raise GridError(f"{self.kind}: extent must be positive")
        if self.speed < 0:
            raise GridError(f"{self.kind}: negative speed")
        if self.direction not in DIR_DELTAS:
            raise GridError(f"{self.kind}: bad direction {self.direction!r}")
        _check_script(self.kind, self.cyclic, self.moves)

    def anchor(self) -> Cell:
        return (self.x, self.y)


@dataclass(frozen=True)
class CarSpec:
    x: int
    y: int
    speed: int = 1
    cyclic: bool = False
    moves: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.speed < 1:
            raise GridError("car: speed must be positive")
        _check_script("car", self.cyclic, self.moves)


@dataclass(frozen=True)
class GridScenario:
    """The owner of every grid rule, with ObstacleRec and CarSpec: the cell
    limit, each rectangle fitting the grid, no overlaps, the car on a free
    cell, move words and no cyclic script without moves are all checked at
    construction, so every command rejects the same scenarios."""
    width: int
    height: int
    static: Tuple[ObstacleRec, ...]
    mobile: Tuple[ObstacleRec, ...]
    car: CarSpec
    dist_min: int = 0

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise GridError("degenerate grid")
        if self.width * self.height > MAX_GRID_CELLS:
            raise GridError(f"grid of {self.width} x {self.height} cells exceeds the limit"
                            f" of {MAX_GRID_CELLS} cells")
        if self.dist_min < 0:
            raise GridError("negative dist_min")
        kinds = [m.kind for m in self.mobile]
        if len(set(kinds)) != len(kinds):
            raise GridError(f"mobile obstacle kinds must be unique: {kinds}")
        for section, obs in (("static", self.static), ("mobile", self.mobile)):
            for i, ob in enumerate(obs):
                # from the rectangle's size alone, before the map lists its cells
                if not (0 <= ob.x and ob.x + ob.w <= self.width
                        and 0 <= ob.y and ob.y + ob.h <= self.height):
                    raise GridError(f"{section}[{i}]: {ob.kind} of {ob.w} x {ob.h} at"
                                    f" ({ob.x}, {ob.y}) does not fit the"
                                    f" {self.width} x {self.height} grid")
        for ob in self.static:
            if ob.moves or ob.speed:
                raise GridError(f"static obstacle {ob.kind} with moves")
        initiate_map(self)  # overlaps, and the car on a free cell

    @property
    def end_obstacle_total(self) -> int:
        """END_OBSTACLEs that end a run: one per non-cyclic mobile."""
        return sum(1 for m in self.mobile if not m.cyclic)


def rect_cells(anchor: Cell, w: int, h: int) -> List[Cell]:
    x, y = anchor
    return [(x + i, y + j) for j in range(h) for i in range(w)]


def step_position(pos: Cell, direction: str, speed: int,
                  width: int, height: int) -> Optional[Cell]:
    """One move of `speed` cells; None when the target leaves the map."""
    dx, dy = DIR_DELTAS[direction]
    x, y = pos[0] + dx * speed, pos[1] + dy * speed
    if 0 <= x < width and 0 <= y < height:
        return (x, y)
    return None


@dataclass(frozen=True)
class GridMap:
    """Ground truth: static geometry plus current actor placement.

    cells[y][x] is None or an index into `table` (kind, transparent). The car
    is tracked separately; while it is on the map it occupies exactly one
    cell, possibly shared with an obstacle after a collision.
    """
    width: int
    height: int
    table: Tuple[Tuple[str, bool], ...]
    cells: Tuple[Tuple[Optional[int], ...], ...]
    car: Optional[Cell]

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def occupant(self, cell: Cell) -> Optional[int]:
        return self.cells[cell[1]][cell[0]]


def build_grid_map(width: int, height: int, placed, car: Optional[Cell]) -> GridMap:
    """placed: iterable of (kind, transparent, anchor, w, h). Indices in the
    resulting table follow the iteration order. Overlaps and out-of-bounds
    rectangles raise GridError; the car cell must be free.
    """
    grid: List[List[Optional[int]]] = [[None] * width for _ in range(height)]
    table = []
    for idx, (kind, transparent, anchor, w, h) in enumerate(placed):
        table.append((kind, transparent))
        for (x, y) in rect_cells(anchor, w, h):
            if not (0 <= x < width and 0 <= y < height):
                raise GridError(f"{kind} sticks out of the map at ({x},{y})")
            if grid[y][x] is not None:
                other = table[grid[y][x]][0]
                raise GridError(f"{kind} overlaps {other} at ({x},{y})")
            grid[y][x] = idx
    if car is not None:
        if not (0 <= car[0] < width and 0 <= car[1] < height):
            raise GridError(f"car out of the map at {car}")
        if grid[car[1]][car[0]] is not None:
            raise GridError(f"car placed on {table[grid[car[1]][car[0]]][0]} at {car}")
    return GridMap(width, height, tuple(table),
                   tuple(tuple(row) for row in grid), car)


def initiate_map(scn: GridScenario) -> GridMap:
    placed = [(ob.kind, ob.transparent, ob.anchor(), ob.w, ob.h)
              for ob in scn.static + scn.mobile]
    return build_grid_map(scn.width, scn.height, placed, (scn.car.x, scn.car.y))


def supercover(a: Cell, b: Cell) -> List[Cell]:
    """Cells whose closed unit square the segment between the centers of a
    and b crosses, walked from a to b. Corner grazings contribute both side
    cells. Classic integer error-term line walk along x; a steeper segment
    is walked transposed.
    """
    (x, y), (x1, y1) = a, b
    dx, dy = x1 - x, y1 - y
    if abs(dx) < abs(dy):
        return [(cx, cy) for cy, cx in supercover((y, x), (y1, x1))]
    cells = [(x, y)]
    xstep = 1 if dx > 0 else -1
    ystep = 1 if dy > 0 else -1
    dx, dy = abs(dx), abs(dy)
    ddx, ddy = 2 * dx, 2 * dy
    error = errorprev = dx
    for _ in range(dx):
        x += xstep
        error += ddy
        if error > ddx:
            y += ystep
            error -= ddx
            if error + errorprev < ddx:
                cells.append((x, y - ystep))
            elif error + errorprev > ddx:
                cells.append((x - xstep, y))
            else:
                cells.append((x, y - ystep))
                cells.append((x - xstep, y))
        cells.append((x, y))
        errorprev = error
    return cells


def occluded(m: GridMap, origin: Cell, target: Cell) -> bool:
    """Is target hidden from origin by an opaque obstacle strictly between?"""
    for cell in supercover(origin, target):
        if cell == origin or cell == target:
            continue
        occ = m.occupant(cell)
        if occ is not None and not m.table[occ][1]:
            return True
    return False


PerceptionGrid = Tuple[Tuple[str, ...], ...]  # [dy+2][dx+2]


def compute_perception(m: GridMap, prev: Optional[PerceptionGrid] = None,
                       prev_car: Optional[Cell] = None) -> PerceptionGrid:
    if m.car is None:
        raise GridError("no car on the map")
    cx, cy = m.car
    rows = []
    for dy in range(-2, 3):
        row = []
        for dx in range(-2, 3):
            cell = (cx + dx, cy + dy)
            if dx == 0 and dy == 0:
                row.append("C")
                continue
            if not m.in_bounds(cell) or occluded(m, m.car, cell):
                row.append("U")
                continue
            occ = m.occupant(cell)
            if occ is None:
                row.append("F")
                continue
            was_free = False
            if prev is not None and prev_car is not None:
                px, py = cell[0] - prev_car[0], cell[1] - prev_car[1]
                if -2 <= px <= 2 and -2 <= py <= 2:
                    was_free = prev[py + 2][px + 2] == "F"
            if m.table[occ][1]:
                row.append("N" if was_free else "T")
            else:
                row.append("M" if was_free else "O")
        rows.append(tuple(row))
    return tuple(rows)


def move_allowed(car: Cell, anchor: Cell, speed: int, direction: str,
                 dist_min: int) -> bool:
    """Distance guard for randomly resolved obstacle moves: anything goes
    within dist_min of the car (Manhattan, anchor to car cell); beyond it the
    move must strictly close in on the car.
    """
    before = abs(car[0] - anchor[0]) + abs(car[1] - anchor[1])
    if before <= dist_min:
        return True
    dx, dy = DIR_DELTAS[direction]
    nx, ny = anchor[0] + dx * speed, anchor[1] + dy * speed
    return abs(car[0] - nx) + abs(car[1] - ny) < before


# ---------------------------------------------------------------------------
# label value encodings

def obstacle_value(kind: str, anchor: Cell, w: int, h: int, speed: int,
                   direction: str, transparent: bool) -> Value:
    return Rec("Obstacle", (
        Sym(kind),
        Rec("Rect", (Nat(anchor[0]), Nat(anchor[1]), Nat(w), Nat(h))),
        Nat(speed),
        Sym(direction),
        Bool(transparent),
    ))


def decode_obstacle(v: Value) -> tuple:
    """Inverse of obstacle_value: (kind, anchor, w, h, speed, direction,
    transparent). Checks the shape in place, without building a value: an
    Obstacle record of a Sym, a Rect record of four Nats, a Nat, a Sym and a
    Bool. Raises ValueError_ on any other value."""
    if _is_rec(v, "Obstacle", (Sym, Rec, Nat, Sym, Bool)):
        kind, rect, speed, direction, transparent = v.fields
        if _is_rec(rect, "Rect", (Nat, Nat, Nat, Nat)):
            x, y, w, h = (f.n for f in rect.fields)
            return kind.name, (x, y), w, h, speed.n, direction.name, transparent.b
    raise ValueError_(f"not an Obstacle value: {v!r}")


def _is_rec(v, name: str, types: tuple) -> bool:
    """v is the record name(...) whose fields have exactly these types."""
    return (type(v) is Rec and v.name == name and isinstance(v.fields, tuple)
            and len(v.fields) == len(types)
            and all(type(f) is t for f, t in zip(v.fields, types)))


def position_value(cell: Cell) -> Value:
    return Pos(cell[0], cell[1])


def perception_value(grid: PerceptionGrid, sym=Sym) -> Value:
    """The Grid record of a perception grid; sym(code) gives each cell's Sym."""
    return Rec("Grid", (Seq(tuple(Seq(tuple(map(sym, row))) for row in grid)),))
