"""Ablation benches for the design choices DESIGN.md calls out."""


from repro.bench.figures import (
    run_ablation_buffer_pool,
    run_ablation_chunk_size,
    run_ablation_compression_cost,
    run_ablation_worm_cache,
)
from repro.bench.report import render_table


def test_chunk_size_ablation(config, capsys):
    figure = run_ablation_chunk_size(config)
    with capsys.disabled():
        print()
        print(render_table(figure))
    # Bigger chunks -> fewer records -> less load overhead.
    assert figure.get("data bytes", "8000B chunks") \
        < figure.get("data bytes", "2000B chunks")


def test_buffer_pool_ablation(config, capsys):
    figure = run_ablation_buffer_pool(config)
    with capsys.disabled():
        print()
        print(render_table(figure))
    # A bigger pool never hurts the locality read.
    assert figure.get("1MB 80/20 read seconds", "512 pages") \
        <= figure.get("1MB 80/20 read seconds", "32 pages") * 1.1


def test_worm_cache_ablation(config, capsys):
    figure = run_ablation_worm_cache(config)
    with capsys.disabled():
        print()
        print(render_table(figure))
    # More cache -> higher hit rate (the Figure 3 mechanism).
    assert figure.get("cache hit rate", "1024 blocks") \
        >= figure.get("cache hit rate", "64 blocks")


def test_compression_cost_ablation(config, capsys):
    figure = run_ablation_compression_cost(config)
    with capsys.disabled():
        print()
        print(render_table(figure))
    # The CPU/I/O race of §9.2: costlier algorithms eventually lose the
    # I/O savings on a fast disk.
    row = "10MB sequential read seconds"
    assert figure.get(row, "60 instr/byte") > figure.get(row, "0 instr/byte")
    # Space saved is identical regardless of CPU price.
    assert figure.get("data bytes", "0 instr/byte") \
        == figure.get("data bytes", "60 instr/byte")


def test_inversion_overhead_ablation(config, capsys):
    from repro.bench.figures import run_ablation_inversion_overhead
    figure = run_ablation_inversion_overhead(config)
    with capsys.disabled():
        print()
        print(render_table(figure))
    # Inversion adds metadata work but stays within ~40% of raw f-chunk
    # on bulk I/O (the per-file cost amortizes over the transfer).
    ratio = (figure.get("1MB sequential read seconds", "Inversion file")
             / figure.get("1MB sequential read seconds", "raw f-chunk"))
    assert ratio < 1.4
