"""The checkpoint load path: the head read, the size floor, adopted views,
the one-pass finiteness probe and the refusal that names a bad field."""

import math
import re
import struct
import warnings

import numpy as np
import pytest

import patchcast.train as train_mod
from patchcast.errors import CheckpointCorruptError
from patchcast.model import ModelConfig, init_params, param_spec, parameter_count, stat_spec
from patchcast.numerics import Tensor, all_finite
from patchcast.train import clone_model, load_checkpoint, save_checkpoint

SMALL = ModelConfig(l_patch=8, n_patches=8, d_model=16, n_layers=2, n_heads=2, d_ff=24,
                    l_pred=16, seed=3)


def config_block(config: ModelConfig) -> bytes:
    return "".join(f"{k}={v}\n" for k, v in config.to_dict().items()).encode()


@pytest.fixture(scope="module")
def model():
    m = init_params(SMALL)
    rng = np.random.default_rng(11)
    m.stats[...] = rng.uniform(0.5, 2.0, size=m.stats.shape)  # statistics unlike their init
    return m


def save(m, path, step=7):
    save_checkpoint(m, path, step=step)
    return path


def assert_bitwise(a, b):
    assert a.arena.tobytes() == b.arena.tobytes()
    assert a.stats.tobytes() == b.stats.tobytes()


class TestAllFinite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_agrees_with_the_elementwise_scan(self, dtype):
        big = np.finfo(dtype).max / 2  # finite, but its square overflows
        cases = [np.zeros(0, dtype), np.ones(5, dtype), np.full(9, big, dtype),
                 np.arange(12, dtype=dtype).reshape(3, 4)]
        for value in (np.nan, np.inf, -np.inf):
            for at in (0, -1):
                a = np.ones(1000, dtype)
                a[at] = value
                cases.append(a)
        for a in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert all_finite(a) == bool(np.isfinite(a).all()), a


class TestLoadPath:
    def test_squares_that_overflow_load_bitwise_without_warning(self, model, tmp_path):
        big = clone_model(model)
        big.arena[3] = 3e19  # finite in float32; its square is not
        with np.errstate(over="ignore"):
            assert not math.isfinite(big.arena @ big.arena)  # so the probe falls back to the scan
        path = save(big, tmp_path / "big.omg")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loaded, step = load_checkpoint(path)
        assert step == 7
        assert_bitwise(loaded, big)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("where", ["first", "last", "running_var"])
    def test_non_finite_value_is_rejected_and_named(self, model, tmp_path, value, where):
        bad = clone_model(model)
        if where == "first":
            bad.arena[0], name = value, param_spec(SMALL)[0][0]
        elif where == "last":
            bad.arena[-1], name = value, param_spec(SMALL)[-1][0]
        else:
            name = "layers.1.norm1.running_var"
            bad.named_stats()[name][5] = value
        path = save(bad, tmp_path / "bad.omg")
        with pytest.raises(CheckpointCorruptError, match=rf"tensor '{name}' holds non-finite"):
            load_checkpoint(path)

    def test_config_block_longer_than_the_head_read_loads(self, model, tmp_path):
        blob = save(model, tmp_path / "plain.omg").read_bytes()
        block = config_block(SMALL)
        padded = block + b"\n" * train_mod._HEAD  # blank lines parse to nothing
        path = tmp_path / "padded.omg"
        path.write_bytes(blob[:8] + struct.pack("<I", len(padded)) + padded + blob[12 + len(block):])
        loaded, step = load_checkpoint(path)
        assert step == 7 and loaded.config == SMALL
        assert_bitwise(loaded, model)

    def test_parameters_are_fresh_tensors_over_the_arena(self, model, tmp_path):
        loaded, _ = load_checkpoint(save(model, tmp_path / "m.omg"))
        offset = 0
        for (name, shape, _), p in zip(param_spec(SMALL), loaded.params.values()):
            assert type(p) is Tensor, name
            assert p.requires_grad is True and p.grad is None and p.grad_home is None, name
            assert p.shape == shape and p.data.dtype == np.float32, name
            assert p.data.flags.c_contiguous and p.data.base is loaded.arena, name
            assert p.data.ctypes.data == loaded.arena.ctypes.data + 4 * offset, name
            offset += math.prod(shape)
        assert offset == loaded.arena.size


def corrupt_file(path, config_text: str, size: int):
    """A file with a valid magic, version and config block, zero-padded to ``size`` bytes."""
    block = config_text.encode()
    head = b"OMGA" + struct.pack("<II", 1, len(block)) + block
    path.write_bytes(head + b"\x00" * (size - len(head)))
    return path


# a seed no other test uses keeps these configs out of the caches beforehand
HUGE_CONFIGS = {
    "many-layers": "l_patch=8\nn_patches=8\nd_model=16\nn_layers=100000\nn_heads=2\nd_ff=24\n"
                   "l_pred=16\nseed=20\n",
    "wide-model": "d_model=8589934592\nn_heads=4\nseed=20\n",
}


class TestSizeFloor:
    @pytest.mark.parametrize("case", sorted(HUGE_CONFIGS))
    def test_corrupt_config_is_refused_before_any_per_layer_work(self, tmp_path, case):
        path = corrupt_file(tmp_path / f"{case}.omg", HUGE_CONFIGS[case], 32 * 1024)
        misses = param_spec.cache_info().misses, train_mod._layout.cache_info().misses
        with pytest.raises(CheckpointCorruptError, match="config implies"):
            load_checkpoint(path)
        assert (param_spec.cache_info().misses, train_mod._layout.cache_info().misses) == misses

    @pytest.mark.parametrize("kw", [
        {}, dict(norm_kind="layer"), dict(n_layers=1, d_ff=1, l_pred=1),
        dict(l_patch=2, n_patches=1, d_model=1, n_layers=1, n_heads=1, d_ff=1, l_pred=1),
        dict(l_patch=64, n_patches=16, d_model=64, n_layers=6, n_heads=4, d_ff=256, l_pred=128),
    ])
    def test_floor_never_exceeds_what_a_save_writes(self, kw):
        config = ModelConfig(**kw)
        stats = sum(math.prod(shape) for _, shape, _ in stat_spec(config))
        assert train_mod._floats_floor(config) <= parameter_count(config) + stats


def record_fields(config: ModelConfig) -> list:
    """Every field after the config block as (label, first byte, end byte),
    counted from the tensor count and derived from the two specs."""
    fields, at = [("tensor count", 0, 4)], 4
    for name, shape, _ in param_spec(config) + stat_spec(config):
        header = at + 2 + len(name.encode()) + 1 + 4 * len(shape)  # name length, name, rank, dims
        fields += [(f"header of {name} {shape}", at, header),
                   (f"payload of {name}", header, header + 4 * math.prod(shape))]
        at = fields[-1][2]
    return fields + [("step counter", at, at + 8)]


class TestRefusal:
    """A file the load refuses raises the typed error naming the field it departs at."""

    start = 12 + len(config_block(SMALL))  # the tensor count's byte

    @pytest.fixture()
    def blob(self, model, tmp_path):
        blob = save(model, tmp_path / "m.omg").read_bytes()
        assert len(blob) == self.start + record_fields(SMALL)[-1][2]
        return blob

    def refused(self, path, data: bytes, match: str):
        path.write_bytes(data)
        with pytest.raises(CheckpointCorruptError, match=match):
            load_checkpoint(path)

    def test_every_cut_names_its_field(self, blob, tmp_path):
        # A cut that leaves fewer bytes than the size floor is refused by the
        # floor, before the config's layout is built; every later cut is named.
        floor = 4 * train_mod._floats_floor(SMALL)
        cuts = [(label, cut) for label, lo, _ in record_fields(SMALL) for cut in (lo, lo + 1)]
        for label, cut in cuts:
            if cut < floor:
                match = f"holds {cut} bytes after its config block, fewer than the {floor}"
            else:
                match = f"^checkpoint truncated while reading {re.escape(label)}$"
            self.refused(tmp_path / "cut.omg", blob[: self.start + cut], match)
        assert sum(cut >= floor for _, cut in cuts) > 50  # the later records and the step counter

    def test_every_flipped_header_is_named(self, blob, tmp_path):
        for label, lo, hi in record_fields(SMALL):
            if label.startswith(("payload", "step")):
                continue
            bad = bytearray(blob)
            bad[self.start + (lo + hi) // 2] ^= 0xFF
            self.refused(tmp_path / "flip.omg", bytes(bad),
                         f"^{re.escape(label)} is not what the config implies$")

    def test_trailing_byte_is_named(self, blob, tmp_path):
        self.refused(tmp_path / "long.omg", blob + b"\x00",
                     "^1 trailing bytes after the step counter$")
