"""Distributed data-parallel training, end to end (paper §5 setup + §6.4).

The paper trains with a global batch spread across 4 GPUs and projects
multi-node scaling with the allreduce bound 2|G|/B.  This example:

1. trains a Split-CNN with 4 simulated data-parallel workers, verifying
   the replicas stay synchronized;
2. measures the *actual* ring-allreduce traffic and compares it to the
   paper's 2|G| bound;
3. feeds the measured quantities into the §6.4 epoch-time model to show
   why Split-CNN's larger batches pay off on slow networks.

Run:  python examples/distributed_training.py
"""

import numpy as np

from repro.core import to_split_cnn
from repro.data import ShapesDataset
from repro.experiments import TrainingProfile, analytical_speedup
from repro.experiments.training import evaluate
from repro.mesh import DataParallelTrainer
from repro.models import small_resnet

MIB = 1 << 20


def main() -> None:
    world_size = 4
    global_batch = 32
    dataset = ShapesDataset(num_samples=320, image_size=16, num_classes=4,
                            seed=1)
    test_set = ShapesDataset(num_samples=120, image_size=16, num_classes=4,
                             seed=77)

    base = small_resnet(num_classes=4, input_size=16, widths=(8, 16),
                        rng=np.random.default_rng(0))
    model = to_split_cnn(base, depth=0.7, num_splits=(2, 2))
    trainer = DataParallelTrainer(model, world_size=world_size, lr=0.05)

    print(f"training a split-CNN on {world_size} data-parallel workers "
          f"(global batch {global_batch})")
    steps = len(dataset) // global_batch
    for epoch in range(3):
        losses = []
        for step in range(steps):
            indices = range(step * global_batch, (step + 1) * global_batch)
            x, y = dataset.batch(indices)
            losses.append(trainer.train_step(x, y))
        in_sync = trainer.replicas_in_sync(atol=1e-6)
        print(f"  epoch {epoch + 1}: loss {np.mean(losses):.3f}, "
              f"replicas in sync: {in_sync}")

    error = evaluate(trainer.replicas[0], test_set, batch_size=32)
    print(f"test error after 3 epochs: {error:.3f}")

    stats = trainer.last_stats
    print(f"\nring-allreduce traffic per step: "
          f"{stats.bytes_sent_per_worker / MIB:.2f} MiB/worker for a "
          f"{stats.payload_bytes / MIB:.2f} MiB gradient "
          f"({stats.lower_bound_ratio():.0%} of the paper's 2|G| bound; "
          f"the bound is the W->infinity limit)")

    print("\nthe same mechanics at VGG-19 scale (|G| = 548 MiB), via the "
          "§6.4 epoch-time model:")
    vgg_gradient = 548 * MIB
    dataset_size = 1_281_167
    profiles = [
        TrainingProfile(
            name=label, batch_size=batch,
            forward_seconds=0.136 * batch / 64,     # simulator-measured
            backward_seconds=0.264 * batch / 64,
            gradient_bytes=vgg_gradient,
        )
        for batch, label in [(64, "baseline batch 64"),
                             (384, "6x Split-CNN batch")]]
    for profile in profiles:
        for gbit in (1.0, 10.0, 32.0):
            seconds = (dataset_size / profile.batch_size
                       * profile.step_seconds(gbit * 1e9))
            print(f"  {profile.name:18s} @ {gbit:4.0f} Gbit/s: "
                  f"epoch {seconds / 60:7.1f} min")
    baseline, split = profiles
    for gbit in (1.0, 10.0, 32.0):
        speedup = analytical_speedup(baseline, split, gbit, dataset_size)
        print(f"  -> Split-CNN speedup @ {gbit:4.0f} Gbit/s: {speedup:.2f}x")


if __name__ == "__main__":
    main()
