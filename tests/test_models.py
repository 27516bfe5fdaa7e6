"""Tests for the model zoo: forward shapes, structure, registry."""

import numpy as np
import pytest

from repro.graph import build_forward_graph
from repro.models import (
    MODEL_REGISTRY, alexnet, build_model, resnet18, resnet34, resnet50,
    small_resnet, small_vgg, vgg11, vgg16, vgg19,
)
from repro.models.vgg import VGG_CONFIGS
from repro.core import conv_count
from repro.nn import init
from repro.tensor import Tensor


class TestSmallModels:
    def test_small_vgg_forward(self, rng):
        model = small_vgg(num_classes=7, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        assert model(x).shape == (2, 7)

    def test_small_vgg_custom_input_size(self, rng):
        model = small_vgg(num_classes=4, input_size=16, rng=rng)
        x = Tensor(rng.standard_normal((1, 3, 16, 16)).astype(np.float32))
        assert model(x).shape == (1, 4)

    def test_small_vgg_too_small_input(self):
        with pytest.raises(ValueError):
            small_vgg(input_size=4)

    def test_small_resnet_forward(self, rng):
        model = small_resnet(num_classes=3, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        assert model(x).shape == (2, 3)

    def test_small_resnet_stage_structure(self, rng):
        model = small_resnet(widths=(8, 16, 32), rng=rng)
        from repro.models import BasicBlock
        blocks = [m for m in model.features if isinstance(m, BasicBlock)]
        assert len(blocks) == 3        # one block per stage
        # Stage 1 keeps resolution; every later stage downsamples.
        assert [block.stride for block in blocks] == [1, 2, 2]


class TestPaperModels:
    """ImageNet-scale models: structure checked symbolically (fast_init +
    shape propagation through the graph builder) to avoid huge numerics."""

    def test_conv_counts_match_architectures(self):
        with init.fast_init():
            assert conv_count(vgg19().features) == 16
            assert conv_count(vgg16().features) == 13
            assert conv_count(vgg11(dataset="imagenet", num_classes=1000).features) == 8
            assert conv_count(resnet18(dataset="imagenet").features) == 20
            assert conv_count(resnet34(dataset="imagenet").features) == 36
            assert conv_count(resnet50().features) == 53
            assert conv_count(alexnet().features) == 5

    def test_vgg_config_depths(self):
        # conv layers per config: VGG-N has N-3 convs (3 FC layers).
        assert sum(1 for e in VGG_CONFIGS["vgg19"] if e != "M") == 16
        assert sum(1 for e in VGG_CONFIGS["vgg16"] if e != "M") == 13
        assert sum(1 for e in VGG_CONFIGS["vgg11"] if e != "M") == 8

    @pytest.mark.parametrize("builder,kwargs,classes", [
        (vgg19, {}, 1000),
        (resnet18, {"dataset": "imagenet", "num_classes": 1000}, 1000),
        (resnet50, {}, 1000),
        (alexnet, {}, 1000),
    ])
    def test_imagenet_symbolic_shapes(self, builder, kwargs, classes):
        with init.fast_init():
            model = builder(**kwargs)
            graph = build_forward_graph(model, batch_size=2, inference=True)
        logits = graph.tensors[graph.ops[-1].outputs[0]]
        assert logits.shape == (2, classes)

    def test_cifar_variants_numeric_forward(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 32, 32)).astype(np.float32))
        for builder in (vgg11, alexnet, resnet18):
            model = builder(num_classes=10, dataset="cifar", rng=rng)
            assert model(x).shape == (1, 10)

    def test_resnet50_expansion(self):
        with init.fast_init():
            model = resnet50()
        assert model.classifier.in_features == 2048

    def test_memory_efficient_flag(self):
        with init.fast_init():
            assert resnet18(dataset="imagenet", memory_efficient=True).memory_efficient_bn
            assert not resnet18(dataset="imagenet").memory_efficient_bn

    def test_invalid_dataset(self):
        with pytest.raises(ValueError):
            vgg19(dataset="mnist")
        with pytest.raises(ValueError):
            alexnet(dataset="mnist")
        with pytest.raises(ValueError):
            resnet18(dataset="mnist")


class TestRegistry:
    def test_registry_complete(self):
        assert set(MODEL_REGISTRY) == {
            "alexnet", "vgg11", "vgg16", "vgg19",
            "resnet18", "resnet34", "resnet50",
            "small_vgg", "small_resnet",
        }

    def test_build_model(self, rng):
        model = build_model("small_vgg", num_classes=3, rng=rng)
        assert model.name == "small-vgg"

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            build_model("lenet")


class TestParameterCounts:
    def test_vgg19_parameter_count(self):
        # Canonical VGG-19 (ImageNet, 1000 classes): ~143.7M parameters.
        with init.fast_init():
            total = vgg19().num_parameters()
        assert 143_000_000 < total < 145_000_000

    def test_resnet18_parameter_count(self):
        # Canonical ResNet-18: ~11.7M parameters.
        with init.fast_init():
            total = resnet18(dataset="imagenet", num_classes=1000).num_parameters()
        assert 11_000_000 < total < 12_500_000

    def test_resnet50_parameter_count(self):
        # Canonical ResNet-50: ~25.6M parameters.
        with init.fast_init():
            total = resnet50().num_parameters()
        assert 25_000_000 < total < 26_500_000

    def test_alexnet_parameter_count(self):
        # Canonical (torchvision) AlexNet: ~61.1M parameters.
        with init.fast_init():
            total = alexnet().num_parameters()
        assert 60_000_000 < total < 62_500_000
