"""Command-line interface.

Subcommands:
    synth   generate synthetic embryo bundles (manifest, ground truth,
            precomputed backend outputs)
    run     run the measurement pipeline over one movie
    eval    score a pipeline result against ground truth
    report  tabulate many evaluation reports into one CSV

Exit codes: 0 success, 1 validation error (bad inputs, bad files,
bad config) or out of memory, 2 backend failure.
"""

from __future__ import annotations

import csv
import glob as globlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import click

from . import pipeline as pipeline_mod
from . import serialize
from .backends import file_backend_suite, synth_backend_suite
from .errors import BackendError, EmbryoMetricsError, ValidationError
from .pipeline import PipelineConfig, evaluate_run, run_pipeline
from .synth import SynthConfig, derive_embryo_seed, generate_movie, render_model_outputs


@click.group()
def cli():
    """Deterministic embryo-measurement pipeline tools."""


def _read(path: Path | str, decode):
    """`decode` of the JSON in `path`; its errors, like `read_json`'s, name the file."""
    obj = serialize.read_json(path)
    try:
        return decode(obj)
    except ValidationError as e:
        raise type(e)(f"{path}: {e}") from None


def _load_synth_config(path: Path | str | None) -> SynthConfig:
    return SynthConfig() if path is None else _read(path, serialize.synth_config_from_obj)


def _load_pipeline_config(path: str | None) -> PipelineConfig:
    return PipelineConfig() if path is None else _read(path, PipelineConfig.from_obj)


def write_bundle(out_dir: Path, config: SynthConfig) -> None:
    """Generate one embryo and write its full bundle."""
    movie, truth = generate_movie(config)
    rendered = render_model_outputs(truth, config)
    embryo_dir = out_dir / config.embryo_id
    embryo_dir.mkdir(parents=True, exist_ok=True)
    serialize.write_json(embryo_dir / "manifest.json", serialize.movie_to_obj(movie))
    serialize.write_json(embryo_dir / "truth.json", serialize.truth_to_obj(truth))
    serialize.write_json(
        embryo_dir / "synth_config.json", serialize.synth_config_to_obj(config)
    )
    serialize.write_backend_files(
        embryo_dir / "backend",
        rendered,
        movie.times,
        seg_plane=truth.plane_count // 2,
    )


@cli.command()
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
@click.option("--embryos", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--jobs", type=int, default=1, show_default=True, help="Worker threads.")
def synth(config_path, out_dir, embryos, seed, jobs):
    """Generate synthetic embryo bundles with exact ground truth."""
    if embryos < 1:
        raise ValidationError("--embryos must be >= 1")
    if jobs < 1:
        raise ValidationError("--jobs must be >= 1")
    if seed < 0:
        raise ValidationError("--seed must be >= 0")
    base = _load_synth_config(config_path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    configs = [
        replace(
            base,
            seed=derive_embryo_seed(seed, i),
            embryo_id=f"synth-{i:04d}",
        )
        for i in range(embryos)
    ]
    # One job stays in the calling thread: a worker thread's malloc arena
    # keeps its freed memory, which raises peak RSS in a long-lived caller.
    if jobs == 1:
        for cfg in configs:
            write_bundle(out, cfg)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(lambda cfg: write_bundle(out, cfg), configs))
    serialize.write_json(
        out / "index.json",
        {
            **serialize._header("synth_index"),
            "base_seed": seed,
            "embryos": [cfg.embryo_id for cfg in configs],
        },
    )
    click.echo(f"wrote {embryos} embryo bundle(s) under {out}")


@cli.command()
@click.option("--movie", "movie_path", type=click.Path(exists=True), required=True)
@click.option(
    "--backends",
    "backends_arg",
    required=True,
    help="'synth' to regenerate outputs from the bundle's synth config, "
    "or a bundle/backend directory of precomputed outputs.",
)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", type=click.Path(), required=True)
def run(movie_path, backends_arg, config_path, out_path):
    """Run the measurement pipeline over one movie manifest."""
    movie = _read(movie_path, serialize.movie_from_obj)
    config = _load_pipeline_config(config_path)
    if backends_arg == "synth":
        synth_config_path = Path(movie_path).parent / "synth_config.json"
        if not synth_config_path.exists():
            raise ValidationError(
                f"--backends synth needs {synth_config_path} next to the manifest"
            )
        synth_config = _load_synth_config(synth_config_path)
        regenerated, truth = generate_movie(synth_config)
        if movie.times != regenerated.times:  # outputs are served by frame index
            raise ValidationError(
                f"{movie_path}: frame times differ from those {synth_config_path} generates"
            )
        suite = synth_backend_suite(truth, synth_config)
    else:
        backend_dir = Path(backends_arg)
        if not backend_dir.is_dir():
            raise ValidationError(f"backend directory not found: {backend_dir}")
        suite = file_backend_suite(backend_dir)
        # Stage rows are matched to the manifest's frames by time.
        suite.stage.table.check_times(movie.times)
    result = run_pipeline(movie, suite, config)
    serialize.write_json(out_path, pipeline_mod.result_to_obj(result))
    click.echo(f"wrote {out_path}")


@cli.command("eval")
@click.option("--result", "result_path", type=click.Path(exists=True), required=True)
@click.option("--truth", "truth_path", type=click.Path(exists=True), required=True)
@click.option("--out", "out_path", type=click.Path(), required=True)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def eval_cmd(result_path, truth_path, out_path, csv_path):
    """Score a pipeline result against ground truth."""
    result = _read(result_path, pipeline_mod.result_from_obj)
    truth = _read(truth_path, serialize.truth_from_obj)
    report = evaluate_run(result, truth, result.config)
    obj = serialize.report_to_obj(report)
    serialize.write_json(out_path, obj)
    if csv_path:
        serialize.write_report_csv(csv_path, obj)
    click.echo(f"wrote {out_path}")


@cli.command()
@click.option("--reports", "reports_glob", required=True, help="Glob of report.json files.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def report(reports_glob, out_path):
    """Tabulate evaluation reports into one comparison CSV."""
    paths = sorted(globlib.glob(reports_glob))
    if not paths:
        raise ValidationError(f"no reports match {reports_glob!r}")

    def pick(block, key):
        value = None if block is None else getattr(block, key)
        return "" if value is None else f"{value:.6f}"

    rows = []
    for path in paths:
        r = _read(path, serialize.report_from_obj)
        rows.append(
            [
                Path(path).stem,
                r.embryo_id,
                pick(r.fragmentation, "agreement"),
                pick(r.stage, "accuracy"),
                pick(r.cells, "mean_ap"),
                pick(r.pronuclei, "mean_ap"),
            ]
        )
    with open(out_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "name",
                "embryo_id",
                "fragmentation_agreement",
                "stage_accuracy",
                "cell_map",
                "pronucleus_map",
            ]
        )
        writer.writerows(rows)
    click.echo(f"wrote {out_path}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.ClickException as e:
        e.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except BackendError as e:
        click.echo(f"backend failure: {e}", err=True)
        return 2
    except (ValidationError, EmbryoMetricsError, OSError) as e:
        click.echo(f"error: {e}", err=True)
        return 1
    except MemoryError as e:
        click.echo(f"error: out of memory: {e}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
