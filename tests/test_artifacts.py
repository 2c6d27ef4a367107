"""Binary artifact readers reject files whose length disagrees with the header."""

import re

import numpy as np
import pytest

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
    dc.write_checkpoint(path, 2, model.mlp, model.stencil)
    return dc.read_checkpoint


def _eigenbasis(path):
    rom.write_eigenbasis(path, rom.EigenBasis(np.arange(4.0)[::-1], np.eye(4)))
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
