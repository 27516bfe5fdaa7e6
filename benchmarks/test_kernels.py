"""Microbenchmarks of the numeric substrate's hot kernels.

Classic pytest-benchmark timing (multiple rounds) for the operations the
accuracy experiments spend their time in: conv2d forward/backward, split
conv execution, batch-norm, and a full train step of the miniature model.
"""

import numpy as np
import pytest

from repro.core import SplitScheme, split_conv2d, to_split_cnn
from repro.data import ShapesDataset
from repro.models import small_resnet
from repro.nn import BatchNorm2d, CrossEntropyLoss
from repro.optim import SGD
from repro.tensor import Tensor, conv2d
from repro.tensor.ops_nn import Conv2d, MaxPool2d


@pytest.fixture(scope="module")
def conv_inputs():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((8, 16, 32, 32)).astype(np.float32))
    w = Tensor(rng.standard_normal((32, 16, 3, 3)).astype(np.float32) * 0.1,
               requires_grad=True)
    return x, w


def test_bench_conv2d_forward(benchmark, conv_inputs):
    x, w = conv_inputs
    out = benchmark(lambda: conv2d(x, w, None, stride=1, padding=1))
    assert out.shape == (8, 32, 32, 32)


def test_bench_conv2d_backward(benchmark, conv_inputs):
    x, w = conv_inputs
    x = Tensor(x.data, requires_grad=True)
    cotangent = np.ones((8, 32, 32, 32), dtype=np.float32)

    def step():
        x.grad = None
        w.grad = None
        conv2d(x, w, None, stride=1, padding=1).backward(cotangent)

    benchmark(step)
    assert x.grad is not None


def test_bench_conv2d_forward_patch_float64(benchmark):
    # The patch_infer shape: few channels, many pixels, no padding — the
    # column buffer's fill, not the GEMM, is most of the call.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 16, 66, 66))
    w = rng.standard_normal((16, 16, 3, 3)) * 0.1
    pad = ((0, 0), (0, 0))
    out = benchmark(lambda: Conv2d().forward(x, w, None, (1, 1), pad))
    assert out.shape == (2, 16, 64, 64)


@pytest.mark.parametrize("need_argmax", [True, False],
                         ids=["argmax", "no-argmax"])
def test_bench_maxpool2d_forward_patch_float64(benchmark, need_argmax):
    # The patch_infer pool shape.  An inference graph has no backward
    # twin to read the argmax, so its kernel runs the second form.
    x = np.random.default_rng(0).standard_normal((2, 16, 84, 84))
    pad = ((0, 0), (0, 0))
    fn = MaxPool2d()
    out = benchmark(lambda: fn.forward(x, (2, 2), (2, 2), pad,
                                       need_argmax=need_argmax))
    assert out.shape == (2, 16, 42, 42)
    assert hasattr(fn, "argmax") == need_argmax


def test_bench_conv2d_backward_weight_small_k(benchmark):
    # The deepest per-patch VGG-11 shape: 1x1 maps, two GEMM rows of
    # pixels against 512*9 columns.
    rng = np.random.default_rng(0)
    fn = Conv2d()
    out = fn.forward(rng.standard_normal((2, 512, 1, 1)),
                     rng.standard_normal((512, 512, 3, 3)) * 0.1, None,
                     (1, 1), ((1, 1), (1, 1)))
    grad = rng.standard_normal(out.shape)
    grad_w = benchmark(lambda: fn.backward_weight(grad))
    assert grad_w.shape == (512, 512, 3, 3)


def test_bench_split_conv2d(benchmark, conv_inputs):
    x, w = conv_inputs
    scheme = SplitScheme.even(32, 2)
    out = benchmark(lambda: split_conv2d(
        x, w, None, (1, 1), ((1, 1), (1, 1)), scheme, scheme))
    assert out.shape == (8, 32, 32, 32)


def test_bench_batchnorm_train(benchmark):
    rng = np.random.default_rng(0)
    bn = BatchNorm2d(32)
    x = Tensor(rng.standard_normal((16, 32, 16, 16)).astype(np.float32))
    out = benchmark(lambda: bn(x))
    assert out.shape == x.shape


def test_bench_train_step_split_model(benchmark):
    rng = np.random.default_rng(0)
    dataset = ShapesDataset(num_samples=32, image_size=16, num_classes=4,
                            seed=0)
    x, y = dataset.batch(range(16))
    model = to_split_cnn(
        small_resnet(num_classes=4, input_size=16, widths=(8, 16), rng=rng),
        depth=0.7, num_splits=(2, 2))
    optimizer = SGD(model.parameters(), lr=0.01, momentum=0.9)
    criterion = CrossEntropyLoss()
    inputs = Tensor(x)

    def step():
        optimizer.zero_grad()
        loss = criterion(model(inputs), y)
        loss.backward()
        optimizer.step()
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss.item())
