"""The micro-op record."""

import pytest

from repro.uarch.uop import MicroOp, OpKind


class TestMicroOp:
    def test_memory_classification(self):
        assert MicroOp(OpKind.LOAD, 0, 64).is_memory()
        assert MicroOp(OpKind.STORE, 0, 64).is_memory()
        assert not MicroOp(OpKind.ALU, 0).is_memory()
        assert not MicroOp(OpKind.BRANCH, 0).is_memory()

    def test_defaults(self):
        uop = MicroOp(OpKind.ALU, 0x400000)
        assert uop.deps == ()
        assert not uop.is_os
        assert uop.tid == 0

    def test_repr_is_readable(self):
        uop = MicroOp(OpKind.LOAD, 0x400000, 0x1000, (3,), 7, is_os=True)
        text = repr(uop)
        assert "LOAD" in text and "os" in text

    def test_slots_prevent_arbitrary_attributes(self):
        uop = MicroOp(OpKind.ALU, 0)
        with pytest.raises(AttributeError):
            uop.color = "red"
