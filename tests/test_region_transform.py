"""Tests for multi-layer split regions and the automatic model transform."""

import numpy as np
import pytest

from repro.core import SplitRegion, conv_count, find_split_prefix, to_split_cnn
from repro.core.region import get_handler
from repro.models import BasicBlock, small_resnet, small_vgg
from repro.nn import Conv2d, Linear, MaxPool2d, ReLU, Sequential
from repro.tensor import Tensor


def small_body(rng):
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        ReLU(),
        MaxPool2d(2, 2),
        Conv2d(4, 8, 3, padding=1, rng=rng),
        ReLU(),
    )


class TestSplitRegion:
    def test_output_shape_matches_body(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(2, 2))
        x = Tensor(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        assert region(x).shape == body(x).shape

    def test_single_split_is_identity(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(1, 1))
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        np.testing.assert_allclose(region(x).numpy(), body(x).numpy())

    def test_asymmetric_grid(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(1, 3))
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        assert region(x).shape == body(x).shape

    def test_parameters_shared_with_body(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(2, 2))
        assert set(id(p) for p in region.parameters()) == \
            set(id(p) for p in body.parameters())

    def test_gradients_flow(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(2, 2))
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32),
                   requires_grad=True)
        out = region(x)
        out.backward(np.ones(out.shape))
        assert x.grad is not None
        assert all(p.grad is not None for p in region.parameters())

    def test_invalid_num_splits(self, rng):
        with pytest.raises(ValueError):
            SplitRegion(small_body(rng), num_splits=(0, 2))

    def test_stochastic_resamples_per_forward(self, rng):
        region = SplitRegion(small_body(rng), num_splits=(2, 2),
                             stochastic=True, seed=0)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        region(x)
        first = region.last_schemes
        schemes = {region.last_schemes[0].boundaries for _ in range(10)
                   if region(x) is not None}
        assert len(schemes) >= 1  # sampling active
        region(x)
        assert region.last_schemes is not None

    def test_stochastic_eval_runs_unsplit(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(2, 2), stochastic=True, seed=0)
        region.eval()
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        np.testing.assert_allclose(region(x).numpy(), body(x).numpy())

    def test_deterministic_eval_stays_split(self, rng):
        body = small_body(rng)
        region = SplitRegion(body, num_splits=(2, 2), stochastic=False)
        region.eval()
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        split_out = region(x).numpy()
        unsplit_out = body(x).numpy()
        assert not np.allclose(split_out, unsplit_out)

    def test_unregistered_module_raises(self):
        with pytest.raises(TypeError):
            get_handler(Linear(4, 4))


class TestResNetBlockSplitting:
    def test_identity_block_shapes(self, rng):
        block = BasicBlock(8, 8, stride=1, rng=rng)
        region = SplitRegion(Sequential(block), num_splits=(2, 2))
        x = Tensor(rng.standard_normal((1, 8, 16, 16)).astype(np.float32))
        assert region(x).shape == block(x).shape

    def test_downsample_block_shapes(self, rng):
        block = BasicBlock(8, 16, stride=2, rng=rng)
        region = SplitRegion(Sequential(block), num_splits=(2, 2))
        x = Tensor(rng.standard_normal((1, 8, 16, 16)).astype(np.float32))
        assert region(x).shape == block(x).shape == (1, 16, 8, 8)

    def test_stacked_blocks(self, rng):
        body = Sequential(
            BasicBlock(4, 4, rng=rng),
            BasicBlock(4, 8, stride=2, rng=rng),
            BasicBlock(8, 8, rng=rng),
        )
        region = SplitRegion(body, num_splits=(2, 2))
        x = Tensor(rng.standard_normal((1, 4, 16, 16)).astype(np.float32))
        assert region(x).shape == body(x).shape

    def test_block_gradients(self, rng):
        block = BasicBlock(4, 8, stride=2, rng=rng)
        region = SplitRegion(Sequential(block), num_splits=(2, 2))
        x = Tensor(rng.standard_normal((1, 4, 16, 16)).astype(np.float32),
                   requires_grad=True)
        out = region(x)
        out.backward(np.ones(out.shape))
        assert x.grad is not None
        assert block.conv1.weight.grad is not None
        assert block.downsample[0].weight.grad is not None


class TestFindSplitPrefix:
    def test_zero_depth(self, rng):
        items = list(small_vgg(rng=rng).features)
        assert find_split_prefix(items, 0.0) == (0, 0.0)

    def test_full_depth(self, rng):
        items = list(small_vgg(rng=rng).features)
        length, achieved = find_split_prefix(items, 1.0)
        assert achieved == pytest.approx(1.0)
        split = sum(conv_count(item) for item in items[:length])
        assert split == sum(conv_count(item) for item in items)

    def test_half_depth_closest_boundary(self, rng):
        items = list(small_vgg(rng=rng).features)  # 6 convs
        length, achieved = find_split_prefix(items, 0.5)
        assert achieved == pytest.approx(0.5)

    def test_block_granularity_resnet(self, rng):
        items = list(small_resnet(rng=rng).features)
        _, achieved = find_split_prefix(items, 0.5)
        # Joins only at block boundaries, so the fraction is approximate
        # (paper footnote 3).
        assert 0.3 < achieved < 0.8

    def test_invalid_depth(self, rng):
        with pytest.raises(ValueError):
            find_split_prefix(list(small_vgg(rng=rng).features), 1.5)

    def test_no_convs_raises(self):
        with pytest.raises(ValueError):
            find_split_prefix([ReLU()], 0.5)


class TestToSplitCnn:
    def test_shapes_preserved(self, rng):
        model = small_vgg(num_classes=5, rng=rng)
        split = to_split_cnn(model, depth=0.5, num_splits=(2, 2))
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        assert split(x).shape == model(x).shape == (2, 5)

    def test_weights_shared_by_reference(self, rng):
        model = small_vgg(rng=rng)
        split = to_split_cnn(model, depth=0.5)
        base_ids = {id(p) for p in model.parameters()}
        split_ids = {id(p) for p in split.parameters()}
        assert base_ids == split_ids

    def test_split_info_populated(self, rng):
        model = small_resnet(rng=rng)
        split = to_split_cnn(model, depth=0.6, num_splits=(2, 2),
                             stochastic=True)
        info = split.split_info
        assert info.stochastic
        assert info.num_splits == (2, 2)
        assert 0 < info.achieved_depth <= 1
        assert info.split_convs <= info.total_convs

    def test_zero_depth_keeps_plain_features(self, rng):
        model = small_vgg(rng=rng)
        split = to_split_cnn(model, depth=0.0)
        assert not any(isinstance(m, SplitRegion) for m in split.features)

    def test_region_placed_first(self, rng):
        model = small_vgg(rng=rng)
        split = to_split_cnn(model, depth=0.5)
        assert isinstance(split.features[0], SplitRegion)

    def test_stochastic_eval_equals_base_model_eval(self, rng):
        model = small_resnet(num_classes=4, rng=rng)
        split = to_split_cnn(model, depth=0.6, num_splits=(2, 2),
                             stochastic=True, seed=1)
        split.eval()
        model.eval()
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        np.testing.assert_allclose(split(x).numpy(), model(x).numpy(),
                                   rtol=1e-5)

    def test_memory_efficient_flag_propagates(self, rng):
        from repro.models import resnet18
        from repro.nn import init
        with init.fast_init():
            model = resnet18(dataset="cifar", memory_efficient=True)
            split = to_split_cnn(model, depth=0.5)
        assert split.memory_efficient_bn

    def test_name_encodes_configuration(self, rng):
        model = small_vgg(rng=rng)
        split = to_split_cnn(model, depth=0.5, num_splits=(2, 2),
                             stochastic=True)
        assert "ssplit2x2" in split.name
