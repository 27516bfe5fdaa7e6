"""Headline result: maximum trainable batch size and the distributed
training speedup it buys (paper Figures 10 and 11).

Finds the largest batch that fits a 16 GB P100 for the baseline and for
Split-CNN + HMMS, then runs Figure 11 with that batch gain: the §6.4
closed-form projection next to the measurement on a simulated 4-device
ring, under bandwidth-constrained allreduce.

Run:  python examples/batch_scaling.py
"""

from repro.experiments import render_fig10, render_fig11, run_fig10, run_fig11


def main() -> None:
    print("Searching maximum trainable batch sizes (this replans the "
          "training graph at many batch sizes; ~10s)...")
    results = run_fig10()
    print()
    print(render_fig10(results))

    vgg_gain = (results["vgg19"]["split+hmms"].max_batch
                / results["vgg19"]["baseline"].max_batch)
    print(f"\nPaper's headline: 6x for VGG-19, 2x for ResNet-18; "
          f"this reproduction: {vgg_gain:.1f}x for VGG-19, "
          f"{results['resnet18']['split+hmms'].max_batch / results['resnet18']['baseline'].max_batch:.1f}x "
          "for the memory-efficient ResNet-18.")

    print("\nDistributed-training speedup (Figure 11)...")
    print(render_fig11(run_fig11(
        split_batch_factor=round(vgg_gain))))


if __name__ == "__main__":
    main()
