import pytest

from dyop2d.benchmark import Scene, default_scene
from dyop2d.dyop import MovementAxis
from dyop2d.errors import SceneFormatError
from dyop2d.geometry import Point2, Triangle
from dyop2d.sceneio import (
    load_scene,
    scene_from_dict,
    scene_to_dict,
    write_scene,
)


def valid_doc():
    return {
        "objects": [
            {"name": "A", "vertices": [[0, 0], [1, 0], [0, 1]]},
            {"name": "B", "vertices": [[0, 0], [2, 0], [1, 1.5]]},
        ],
        "separation": 1.0,
        "axis": "x",
    }


def test_scene_from_dict_parses():
    scene = scene_from_dict(valid_doc())
    assert [t.name for t in scene.objects] == ["A", "B"]
    assert scene.separation == 1.0
    assert scene.axis.value == "x"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("objects"),
        lambda d: d.__setitem__("objects", []),
        lambda d: d["objects"][0].pop("name"),
        lambda d: d["objects"][0].__setitem__("name", ""),
        lambda d: d["objects"][1].__setitem__("name", "A"),
        lambda d: d["objects"][0].__setitem__("vertices", [[0, 0], [1, 0]]),
        lambda d: d["objects"][0]["vertices"].__setitem__(0, [0]),
        lambda d: d["objects"][0]["vertices"].__setitem__(0, ["x", 0]),
        lambda d: d.__setitem__("separation", 0),
        lambda d: d.__setitem__("separation", "wide"),
        lambda d: d.__setitem__("axis", "z"),
        lambda d: d.pop("axis"),
        # Integers too large for a float, as a JSON literal of 400 digits parses.
        lambda d: d["objects"][0]["vertices"].__setitem__(0, [10**400, 0]),
        lambda d: d.__setitem__("separation", 10**400),
        # An objects entry that is a vertex list, not an object.
        lambda d: d["objects"].__setitem__(1, [[0, 0], [1, 0], [0, 1]]),
    ],
)
def test_scene_from_dict_rejects_malformed(mutate):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(SceneFormatError):
        scene_from_dict(doc)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.__setitem__("objects", []), "scene needs at least one object"),
        (lambda d: d["objects"][0].__setitem__("name", ""), "every scene object needs a name"),
        (lambda d: d["objects"][1].__setitem__("name", "A"), "duplicate object name: A"),
        (lambda d: d.__setitem__("separation", 0), "separation must be positive: 0.0"),
        (lambda d: d.__setitem__("separation", -1.5), "separation must be positive: -1.5"),
    ],
    ids=["no-objects", "empty-name", "duplicate-name", "zero-separation", "negative-separation"],
)
def test_scene_from_dict_and_scene_refuse_the_same_documents(mutate, message):
    doc = valid_doc()
    mutate(doc)
    with pytest.raises(SceneFormatError) as from_file:
        scene_from_dict(doc)
    objects = tuple(
        Triangle(*(Point2(*v) for v in raw["vertices"]), raw["name"]) for raw in doc["objects"]
    )
    with pytest.raises(ValueError) as in_code:
        Scene(objects, float(doc["separation"]), MovementAxis(doc["axis"]))
    assert str(from_file.value) == str(in_code.value) == message


def test_scene_from_dict_rejects_non_object():
    with pytest.raises(SceneFormatError):
        scene_from_dict([1, 2, 3])


def test_default_scene_round_trip(tmp_path):
    scene = default_scene()
    path = tmp_path / "scene.json"
    write_scene(scene, str(path))
    assert load_scene(str(path)) == scene


def test_scene_dict_round_trip():
    scene = scene_from_dict(valid_doc())
    assert scene_from_dict(scene_to_dict(scene)) == scene


def test_load_scene_missing_file(tmp_path):
    with pytest.raises(SceneFormatError):
        load_scene(str(tmp_path / "missing.json"))


def test_load_scene_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SceneFormatError):
        load_scene(str(path))


@pytest.mark.parametrize(
    "data",
    [
        b'{"separation": ' + b"1" * 5000 + b"}",  # past the int-to-str digit limit
        b"\xff\xfe{}",  # not UTF-8
    ],
    ids=["digit-limit", "not-utf8"],
)
def test_load_scene_refuses_undecodable_file(tmp_path, data):
    path = tmp_path / "broken.json"
    path.write_bytes(data)
    with pytest.raises(SceneFormatError):
        load_scene(str(path))
