"""Scene file ingestion and export.

A scene file is a flat JSON document:

    {
      "objects": [{"name": "Obj1", "vertices": [[0, 0], [1, 0], [0, 1]]}, ...],
      "separation": 1.0,
      "axis": "x"
    }

Every object needs exactly three vertices and a unique name; vertices
are normalized to counter-clockwise order on load, and the export
writes the normalized order back, so a round trip is identity.

``scene_from_dict`` checks only the document's JSON shape: a list of
objects, each with a string name and three finite vertex pairs, a finite
separation and an axis of ``x`` or ``y``. ``Scene`` checks the scene
itself (at least one object, non-empty unique names, a positive
separation), and its ``ValueError`` is raised as ``SceneFormatError``.
"""

from __future__ import annotations

import json
import math

from .benchmark import Scene
from .dyop import MovementAxis
from .errors import SceneFormatError
from .geometry import Point2, Triangle


def _finite_number(value: object) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        return number and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _parse_vertex(raw: object, where: str) -> Point2:
    if not isinstance(raw, (list, tuple)) or len(raw) != 2 or not all(map(_finite_number, raw)):
        raise SceneFormatError(f"{where}: vertex must be a pair of finite numbers, got {raw!r}")
    return Point2(float(raw[0]), float(raw[1]))


def scene_from_dict(doc: object) -> Scene:
    if not isinstance(doc, dict):
        raise SceneFormatError("scene document must be a JSON object")
    raw_objects = doc.get("objects")
    if not isinstance(raw_objects, list):
        raise SceneFormatError("scene needs an 'objects' list")

    triangles = []
    for k, raw in enumerate(raw_objects):
        where = f"objects[{k}]"
        if not isinstance(raw, dict):
            raise SceneFormatError(f"{where}: must be an object")
        name = raw.get("name")
        if not isinstance(name, str):
            raise SceneFormatError(f"{where}: needs a string name")
        verts = raw.get("vertices")
        if not isinstance(verts, list) or len(verts) != 3:
            raise SceneFormatError(f"{where}: needs exactly 3 vertices")
        points = [_parse_vertex(v, where) for v in verts]
        triangles.append(Triangle(points[0], points[1], points[2], name))

    separation = doc.get("separation")
    if not _finite_number(separation):
        raise SceneFormatError(f"separation must be a finite number, got {separation!r}")

    axis = doc.get("axis")
    if axis not in ("x", "y"):
        raise SceneFormatError(f"axis must be 'x' or 'y', got {axis!r}")

    try:
        return Scene(tuple(triangles), float(separation), MovementAxis(axis))
    except ValueError as exc:
        raise SceneFormatError(str(exc)) from exc


def scene_to_dict(scene: Scene) -> dict:
    return {
        "objects": [
            {
                "name": t.name,
                "vertices": [[v.x, v.y] for v in t.vertices],
            }
            for t in scene.objects
        ],
        "separation": scene.separation,
        "axis": scene.axis.value,
    }


def load_scene(path: str) -> Scene:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SceneFormatError(f"cannot read scene file {path}: {exc}") from exc
    except ValueError as exc:
        # Malformed JSON, an integer past the int-to-str digit limit, or not UTF-8.
        raise SceneFormatError(f"scene file {path} is not valid JSON: {exc}") from exc
    return scene_from_dict(doc)


def write_scene(scene: Scene, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(scene_to_dict(scene), fh, indent=2)
        fh.write("\n")
