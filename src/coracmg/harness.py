"""Experiment harness: sample a subset, run retrieve/augment/generate per
commit, score against the developer-written references, and render reports.

Each sampled commit goes through an independent pipeline run with retrieval
scoped to its own project and its own sha excluded; only ``rag`` and
``retrieval-copy`` runs retrieve.  Per-commit failures are
recorded in the result rows rather than aborting the run.  Result files are
``results.jsonl`` (rows sorted by sha), ``manifest.json`` and ``report.md``;
identical configurations and seeds reproduce ``results.jsonl`` byte for
byte.  An :class:`ExperimentResult` is the manifest and the rows: the means
are ``manifest["metrics"]``, keyed as ``metrics.METRICS``, and there is no
other copy of them.

Every report is drawn by :func:`render_report`: a run's ``report.md`` (the
seed, then the run's label, means and commits with the failed ones in
brackets), the comparison :func:`run_k_sweep` writes to
``<out_dir>/report.md``, and ``coracmg report``'s table.

The corpus file's bytes are read once, and ``corpus_sha256`` is their
digest.  Every line is checked as ``read_corpus`` checks it, but a record is
kept only as its paths and its raw line (``diffs.CorpusLine``) until the
subset is drawn; ``CommitRecord``s are built for the sampled commits only.

Queries are embedded by the embedder the index was built with, which a
``provider_config`` must describe exactly (``providers.query_embedder``).
The index, provider config, template and ``out_dir`` are checked before the
corpus is read, so a mismatch stops the run before any row and before
``out_dir`` exists.

Commits run one at a time unless a model provider is called: then up to the
provider config's ``concurrency.inflight`` commits run at once, since only
provider requests wait on I/O.  A commit makes one request at a time, so
this also bounds the requests in flight.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import random
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence, TypeVar

from . import metrics
from .augmenter import DEFAULT_MAX_PROMPT_CHARS, MAX_EXAMPLES, PromptTemplate
from .diffs import CommitRecord, language_of, read_corpus_lines, read_jsonl
from .errors import ConfigError, CorpusTooSmall, InvalidInput, ManifestMismatch, check_type
from .providers import (
    GenerationClient,
    HashingEmbedder,
    MockGenerator,
    ProviderConfig,
    query_embedder,
)
from .retriever import RetrievalIndex

GENERATORS = ("provider", "echo-mock", "retrieval-copy")
R = TypeVar("R")  # a record type of sample_subset: CommitRecord or CorpusLine


@dataclass
class ExperimentConfig:
    corpus: str
    out_dir: str
    method: str = "direct"  # "direct" | "rag"
    k: int | None = None
    subset_size: int = 0  # 0 means the whole corpus
    seed: int = 0
    generator: str = "echo-mock"
    generator_text: str = "update code"
    index: str | None = None
    embed_cache: str | None = None  # default: "<corpus>.embed_cache"
    template: str | None = None
    max_prompt_chars: int = DEFAULT_MAX_PROMPT_CHARS
    provider_config: str | None = None
    cider_scale: float = metrics.CIDER_SCALE
    # Read by nothing: accepted so older config files still load.  Concurrency
    # comes from the provider config's ``concurrency.inflight``.
    workers: int = 4

    def __post_init__(self):
        for field in fields(self):  # annotations are strings: see the __future__ import
            check_type(field.name, getattr(self, field.name), field.type)
        # NaN fails both comparisons; an int past the float range fails the second.
        if not 0 < self.cider_scale <= sys.float_info.max:
            raise ConfigError(
                f"cider_scale must be a finite number above 0, not {self.cider_scale!r}"
            )
        if self.subset_size < 0:
            raise ConfigError(f"subset_size must be at least 0, not {self.subset_size}")
        if self.max_prompt_chars < 1:  # would drop every example without a word
            raise ConfigError(
                f"max_prompt_chars must be at least 1, not {self.max_prompt_chars}"
            )
        if self.generator == "provider" and not self.provider_config:
            raise ConfigError("generator 'provider' needs a provider_config file")
        if self.method not in ("direct", "rag"):
            raise ConfigError(f"unknown method {self.method!r}")
        if self.generator not in GENERATORS:
            choices = ", ".join(GENERATORS)
            raise ConfigError(f"unknown generator {self.generator!r}; choose one of {choices}")
        if self.method == "rag":
            if self.k is None or not 1 <= self.k <= MAX_EXAMPLES:
                raise ConfigError(f"method 'rag' requires k between 1 and {MAX_EXAMPLES}")
        elif self.k is not None:
            raise ConfigError("k is only meaningful for method 'rag'")
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, not {self.workers}")
        if self.needs_retrieval and not self.index:
            raise ConfigError(
                f"method {self.method!r} with generator {self.generator!r} "
                "retrieves examples, so it needs an index directory"
            )

    @property
    def needs_retrieval(self) -> bool:
        return self.method == "rag" or self.generator == "retrieval-copy"

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        try:
            return cls(**values)
        except TypeError as exc:  # unknown or missing keys, values of the wrong type
            raise ConfigError(f"{path}: {exc}") from None

    def to_dict(self) -> dict:
        return asdict(self)


def sample_subset(records: Sequence[R], n: int, seed: int) -> list[R]:
    """Seeded sample of ``n`` records covering every language in the corpus.

    A record is anything with a ``files`` list of paths: a ``CommitRecord``
    or a ``CorpusLine``.  One record is drawn per uncovered language first;
    the remainder is a uniform draw.  Output preserves corpus order, and a
    given seed always selects the same subset.
    """
    if n > len(records):
        raise CorpusTooSmall(f"requested {n} records from a corpus of {len(records)}")
    touching: dict[str, list[int]] = {}  # path -> ascending indices of the records with it
    for i, record in enumerate(records):
        for path in record.files:
            touching.setdefault(path, []).append(i)
    holders: dict[str, set[int]] = {}  # language -> indices of its records
    for path, indices in touching.items():  # one language lookup per distinct path
        lang = language_of(path)
        if lang != "other":
            holders.setdefault(lang, set()).update(indices)
    present = sorted(holders)
    if n < len(present):
        raise CorpusTooSmall(
            f"{n} records cannot cover the {len(present)} languages in the corpus"
        )
    rng = random.Random(seed)
    chosen: set[int] = set()
    covered: set[str] = set()
    for lang in present:
        if lang in covered:
            continue
        pick = rng.choice(sorted(holders[lang] - chosen))
        chosen.add(pick)
        covered.update(map(language_of, records[pick].files))
    rest = [i for i in range(len(records)) if i not in chosen]
    chosen.update(rng.sample(rest, n - len(chosen)))
    return [records[i] for i in sorted(chosen)]


@dataclass
class ExperimentResult:
    manifest: dict
    rows: list[dict]
    out_dir: Path | None = None

    @classmethod
    def load(cls, run_dir: str | Path) -> "ExperimentResult":
        run_dir = Path(run_dir)
        path = run_dir / "manifest.json"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidInput(f"{path} is not valid JSON: {exc}") from None
        # Every value render_report reads: the means, the counts, and the
        # config echo by the config's own rules.
        try:
            for key, _ in metrics.METRICS:
                check_type(f"metrics.{key}", manifest["metrics"][key], "float")
            for key in ("seed", "subset_size", "failed_count"):
                check_type(key, manifest[key], "int")
            ExperimentConfig(**manifest["config"])
            manifest["corpus_sha256"]  # compared, never formatted
        except KeyError as exc:
            raise InvalidInput(f"{path} is not an experiment manifest: no key {exc}") from None
        except (ConfigError, TypeError) as exc:
            raise InvalidInput(f"{path} is not an experiment manifest: {exc}") from None
        return cls(manifest, list(read_jsonl(run_dir / "results.jsonl", lambda row: row)), run_dir)

    @property
    def label(self) -> str:
        method = self.manifest["config"]["method"]
        gen = self.manifest["config"]["generator"]
        k = self.manifest["config"]["k"]
        if method == "rag":
            return f"rag-k{k}-{gen}"
        return f"direct-{gen}"

    @property
    def fingerprint(self) -> tuple:
        """What runs compared in one report must share: corpus, seed and subset size."""
        return (
            self.manifest["corpus_sha256"],
            self.manifest["seed"],
            self.manifest["subset_size"],
        )


def _build_generator(config: ExperimentConfig, pc: ProviderConfig | None):
    if config.generator == "echo-mock":
        return MockGenerator(config.generator_text)
    if config.generator == "provider":
        return GenerationClient(pc.gen)
    return None  # retrieval-copy needs no generator object


def _check_out_dir(out_dir: Path) -> None:
    """Raise the ``OSError`` that creating ``out_dir`` would, without creating anything."""
    for path in (out_dir, *out_dir.parents):
        if path.is_dir():
            return
        if path.exists():  # a file where a directory must be
            code = errno.EEXIST if path == out_dir else errno.ENOTDIR
            raise OSError(code, os.strerror(code), str(out_dir))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    started = time.time()
    index = RetrievalIndex.load(config.index) if config.needs_retrieval else None
    hashed = index is None or index.embedder_id == HashingEmbedder(index.dimension).identifier
    pc = None
    if config.provider_config and (config.generator == "provider" or not hashed):
        pc = ProviderConfig.from_file(config.provider_config)
    # The embed cache lives beside the corpus so reruns and k sweeps reuse it.
    cache = config.embed_cache or f"{config.corpus}.embed_cache"
    try:
        embedder = query_embedder(index.embedder_id, index.dimension, pc, cache) if index else None
        generator = _build_generator(config, pc)
    except ConfigError as exc:  # no endpoint for a role the run uses, or another model
        source = f"provider config {config.provider_config}: " if pc else ""
        raise ConfigError(f"{source}{exc}") from None
    template = (
        PromptTemplate.from_file(config.template)
        if config.template
        else PromptTemplate.default()
    )
    out_dir = Path(config.out_dir)
    _check_out_dir(out_dir)
    corpus_digest = hashlib.sha256()  # of the bytes the records are parsed from
    lines = read_corpus_lines(config.corpus, corpus_digest)
    sampled = sample_subset(lines, config.subset_size or len(lines), config.seed)
    del lines  # rows read only the subset: the rest of the corpus can go
    subset = [line.record() for line in sampled]

    def process(record: CommitRecord) -> dict:
        row = {
            "sha": record.sha,
            "repo_full_name": record.repo_full_name,
            "reference": record.message,
            "generated": None,
            "retrieved": [],
            "scores": None,
            "status": "ok",
        }
        try:
            examples = []
            if index is not None:
                k = config.k or 1  # a direct retrieval-copy run copies the top example
                examples = index.retrieve(
                    record.diff, k, record.repo_full_name, exclude_sha=record.sha, embedder=embedder
                )
                row["retrieved"] = [
                    {
                        "sha": ex.handle.sha,
                        "repo_full_name": ex.handle.repo_full_name,
                        "hybrid_score": ex.hybrid_score,
                    }
                    for ex in examples
                ]
            if config.generator == "retrieval-copy":
                row["generated"] = examples[0].message
            else:  # only a rag run retrieves for a prompt
                kept = template.fit(record.diff, examples, config.max_prompt_chars)
                row["generated"] = generator.generate(template.render(record.diff, kept), kept)
        except Exception as exc:  # recorded, never fatal to the run
            row["status"] = f"error: {type(exc).__name__}: {exc}"
        return row

    # Retrieval, rendering and mocks are CPU-bound under the GIL, so threads
    # pay only where a provider request waits on the network.
    with ThreadPoolExecutor(max_workers=pc.inflight if pc else 1) as pool:
        rows = list(pool.map(process, subset))
    rows.sort(key=lambda r: r["sha"])

    ok_rows = [r for r in rows if r["status"] == "ok"]
    report = metrics.MetricReport()
    if ok_rows:
        report = metrics.evaluate_corpus(
            [(r["generated"], r["reference"]) for r in ok_rows],
            cider_scale=config.cider_scale,
        )
        for row, scores in zip(ok_rows, report.per_sample):
            row["scores"] = scores.to_dict()

    manifest = {
        "config": config.to_dict(),
        "seed": config.seed,
        "corpus_sha256": corpus_digest.hexdigest(),
        "template_sha256": hashlib.sha256(
            (template.preamble + template.example_block + template.tail).encode("utf-8")
        ).hexdigest(),
        "generator_id": getattr(generator, "identifier", config.generator),
        "embedder_id": index.embedder_id if index else None,
        "subset_size": len(subset),
        "ok_count": len(ok_rows),
        "failed_count": len(rows) - len(ok_rows),
        "metrics": report.means(),
        "runtime_seconds": round(time.time() - started, 3),
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "results.jsonl", "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
            fh.write("\n")
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    result = ExperimentResult(manifest=manifest, rows=rows, out_dir=out_dir)
    (out_dir / "report.md").write_text(render_report([result]), encoding="utf-8")
    return result


def run_k_sweep(config: ExperimentConfig, ks=range(1, MAX_EXAMPLES + 1)) -> list[ExperimentResult]:
    """Run the rag method for each k under out_dir/k<k>, checking every config first.

    The runs' comparison goes to out_dir/report.md.
    """
    ks = list(ks)
    if not ks:
        raise ConfigError("k sweep lists no k")
    repeated = sorted({k for k in ks if ks.count(k) > 1})
    if repeated:
        raise ConfigError(f"k sweep lists k {', '.join(map(str, repeated))} more than once")
    base_out = Path(config.out_dir)
    subs = [
        ExperimentConfig(
            **{**config.to_dict(), "method": "rag", "k": k, "out_dir": str(base_out / f"k{k}")}
        )
        for k in ks
    ]
    results = [run_experiment(sub) for sub in subs]
    (base_out / "report.md").write_text(render_report(results), encoding="utf-8")
    return results


def _delta(direct: float, augmented: float) -> str:
    if direct == 0:
        return "n/a"
    pct = round(100 * (augmented - direct) / direct)
    arrow = "↑" if pct >= 0 else "↓"
    return f"{arrow}{abs(pct)}%"


def _cells(means: dict, base: dict | None = None) -> str:
    """The table cells of ``means``, each with its change from ``base`` when one is given."""
    return " | ".join(
        f"{means[key]:.2f}" + (f" ({_delta(base[key], means[key])})" if base else "")
        for key, _ in metrics.METRICS
    )


def render_report(results: list[ExperimentResult]) -> str:
    """Mean scores of each run against the direct baseline, plus a k-sweep series.

    A run's ``report.md``, a k sweep's and ``coracmg report``'s table are
    all drawn here.  All runs must share the same corpus, seed and subset
    size; mismatches raise :class:`ManifestMismatch`.  Rows of runs that
    share a label (a standalone run and a sweep's run of the same k) also
    name each run's directory.
    """
    if not results:
        raise ManifestMismatch("no experiment results to report on")
    for res in results:
        if res.fingerprint != results[0].fingerprint:
            raise ManifestMismatch(
                f"run {res.label} was made from a different subset than the others"
            )
    direct = [r for r in results if r.manifest["config"]["method"] == "direct"]
    augmented = [r for r in results if r.manifest["config"]["method"] != "direct"]
    shared = {label for label, n in Counter(r.label for r in results).items() if n > 1}

    def named(res: ExperimentResult, cell) -> str:
        """``cell``, naming the run's directory when another run has its label."""
        if res.label not in shared:
            return str(cell)
        return f"{cell} ({res.out_dir or res.manifest['config']['out_dir']})"

    titles = " | ".join(title for _, title in metrics.METRICS)
    lines = ["# Experiment runs", "", f"- seed: {results[0].manifest['seed']}", ""]
    lines += [f"| Run | {titles} | Commits (failed) |", "|" + "---|" * (len(metrics.METRICS) + 2)]
    base = direct[0].manifest["metrics"] if direct else None
    for res in direct + sorted(augmented, key=lambda r: (r.manifest["config"]["k"] or 0, r.label)):
        against = None if res in direct else base
        counts = f"{res.manifest['subset_size']} ({res.manifest['failed_count']})"
        cells = _cells(res.manifest["metrics"], against)
        lines.append(f"| {named(res, res.label)} | {cells} | {counts} |")
    lines.append("")

    sweep = sorted(
        (r for r in augmented if r.manifest["config"]["k"] is not None),
        key=lambda r: r.manifest["config"]["k"],
    )
    if len(sweep) >= 2:
        lines += ["## Scores by number of example pairs", ""]
        lines += [f"| k | {titles} |", "|" + "---|" * (len(metrics.METRICS) + 1)]
        for res in sweep:
            k = named(res, res.manifest["config"]["k"])
            lines.append(f"| {k} | {_cells(res.manifest['metrics'])} |")
        lines.append("")
    return "\n".join(lines)
