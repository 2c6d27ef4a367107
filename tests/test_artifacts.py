"""Binary artifact readers reject files whose length disagrees with the header,
whose tag bytes name nothing, or whose payload holds a NaN or Inf."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from stabnode import cli
from stabnode import diffcore as dc
from stabnode import metrics as mt
from stabnode import neural_ode as node
from stabnode import rom
from stabnode import spectral as sp


def _model():
    return node.build_model("learned-linear", [8, 4, 8], ["sigmoid", "linear"],
                            ("normal", 0.0, 1e-2), seed=0, stencil_width=3)


def _dataset(path):
    ds = sp.SnapshotDataset(np.ones((2, 3, 8)), 0.1, 1.0, "vbe")
    sp.write_dataset(ds, path)
    return sp.read_dataset


def _checkpoint(path):
    model = _model()
    dc.write_checkpoint(path, 2, model.term, model.linear)
    return dc.read_checkpoint


def _eigenbasis(path):
    rom.write_eigenbasis(path, rom.fourier_basis(np.array([0.0, -1.0, -4.0])))
    return rom.read_eigenbasis


def _joint_pdf(path):
    states = np.random.default_rng(0).standard_normal((3, 16))
    mt.write_joint_pdf(path, mt.joint_pdf(states, 22.0, bins=5))
    return mt.read_joint_pdf


def _opt_state(path):
    model = _model()
    node.save_opt_state(path, node.AdamState(model))
    return lambda p: node.load_opt_state(p, model)


FORMATS = [_dataset, _checkpoint, _eigenbasis, _joint_pdf, _opt_state]


@pytest.mark.parametrize("write", FORMATS, ids=lambda f: f.__name__.strip("_"))
class TestLength:
    def test_one_byte_short(self, tmp_path, write):
        path = tmp_path / "artifact.bin"
        read = write(path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(sp.ArtifactError, match=re.escape(str(path))):
            read(path)

    def test_one_byte_extra(self, tmp_path, write):
        path = tmp_path / "artifact.bin"
        read = write(path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(sp.ArtifactError, match=re.escape(str(path))):
            read(path)

    def test_header_only(self, tmp_path, write):
        path = tmp_path / "artifact.bin"
        read = write(path)
        path.write_bytes(path.read_bytes()[:6])
        with pytest.raises(sp.ArtifactError):
            read(path)


@pytest.mark.parametrize("write", FORMATS, ids=lambda f: f.__name__.strip("_"))
def test_bad_magic(tmp_path, write):
    path = tmp_path / "artifact.bin"
    read = write(path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(sp.ArtifactError, match=re.escape(str(path)) + ".*magic"):
        read(path)


# the formats with a u32 version field after the magic
@pytest.mark.parametrize("write", [_dataset, _checkpoint],
                         ids=lambda f: f.__name__.strip("_"))
def test_unsupported_version(tmp_path, write):
    path = tmp_path / "artifact.bin"
    read = write(path)
    data = path.read_bytes()
    path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
    with pytest.raises(sp.ArtifactError,
                       match=re.escape(str(path)) + ".*unsupported .* version 2"):
        read(path)


def _variant(path):
    node.save_model(path, _model())
    return node.load_model


# (writer, offset of the tag byte): SNOD system, SNCK first activation, SNCK
# variant, SNEB ordering
BAD_TAGS = [(_dataset, 36), (_checkpoint, 25), (_variant, 8), (_eigenbasis, 8)]


@pytest.mark.parametrize("write,offset", BAD_TAGS,
                         ids=["dataset", "checkpoint", "variant", "eigenbasis"])
def test_unknown_tag_byte(tmp_path, write, offset):
    path = tmp_path / "artifact.bin"
    read = write(path)
    data = bytearray(path.read_bytes())
    data[offset] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(sp.ArtifactError, match=re.escape(str(path)) + ".*tag byte 7"):
        read(path)


@pytest.mark.parametrize("tag,with_stencil", [(0, True), (1, True), (2, False)],
                         ids=["nonlinear-with-stencil", "fixed-linear-with-stencil",
                              "learned-linear-without-stencil"])
def test_variant_tag_contradicting_stencil(tmp_path, tag, with_stencil, capsys):
    # a stencil block belongs to the learned-linear tag (2) and to no other
    model = _model()
    path = tmp_path / "model.snck"
    dc.write_checkpoint(path, tag, model.term, model.linear if with_stencil else None,
                        sidecar={"system": "vbe", "domain_length": 1.0})
    with pytest.raises(sp.ArtifactError, match=re.escape(str(path)) + ".*stencil"):
        node.load_model(path)
    assert cli.main(["stencil-report", "--checkpoint", str(path)]) == 4
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("write", FORMATS, ids=lambda f: f.__name__.strip("_"))
def test_non_finite_payload(tmp_path, write, value):
    # every format ends in float64 payload; poison its last value
    path = tmp_path / "artifact.bin"
    read = write(path)
    data = path.read_bytes()
    offset = len(data) - 8
    path.write_bytes(data[:offset] + struct.pack("<d", value))
    with pytest.raises(sp.ArtifactError,
                       match=re.escape(str(path)) + f".*non-finite.*offset {offset}"):
        read(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_first_non_finite_offset_named(tmp_path, value):
    # a later NaN does not hide the first non-finite value
    values = np.ones((2, 3, 8))
    values[1, 0, 5] = value
    values[1, 2, 0] = np.nan
    path = tmp_path / "d.snod"
    sp.write_dataset(sp.SnapshotDataset(values, 0.1, 1.0, "vbe"), path)
    offset = 4 + struct.calcsize("<IIIIddB") + 8 * (3 * 8 + 5)
    with pytest.raises(sp.ArtifactError, match=f"non-finite value at offset {offset}$"):
        sp.read_dataset(path)


def _peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_payload_held_once(tmp_path):
    # the writer writes the values themselves, the reader reads into the one
    # array it returns
    values = np.random.default_rng(0).standard_normal((4, 50, 512))
    path = tmp_path / "d.snod"
    ds = sp.SnapshotDataset(values, 0.1, 1.0, "vbe")
    _, write_peak = _peak(lambda: sp.write_dataset(ds, path))
    back, read_peak = _peak(lambda: sp.read_dataset(path))
    assert np.array_equal(back.values, values)
    assert write_peak < 0.25 * values.nbytes, write_peak
    assert read_peak < 1.25 * values.nbytes, read_peak


def test_train_trajectories_past_the_file(tmp_path, capsys):
    # a sidecar that claims more training trajectories than the file holds
    path = tmp_path / "d.snod"
    ds = sp.SnapshotDataset(np.zeros((2, 3, 8)), 0.1, 1.0, "vbe")
    sp.write_dataset(ds, path, manifest={"system": "vbe", "train_trajectories": 2})
    assert sp.read_dataset(path).split()[1].n_traj == 0
    sp.write_dataset(ds, path, manifest={"system": "vbe", "train_trajectories": 3})
    with pytest.raises(sp.ArtifactError, match=re.escape(f"{path}.txt")
                       + ".*train_trajectories=3.*2 trajectories"):
        sp.read_dataset(path)
    out = tmp_path / "o"
    assert cli.main(["train", "--dataset", str(path), "--variant", "nonlinear",
                     "--out", str(out), "--epochs", "1", "--set", "hidden=4"]) == 4
    assert "train_trajectories" in capsys.readouterr().err
    assert not out.exists()
