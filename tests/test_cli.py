"""End-to-end command-line pipeline tests on a toy corpus."""

import codecs
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazescore import __version__, cli, experiments
from gazescore.checkpoint import load_checkpoint
from gazescore.cli import (
    _write_records_csv,
    _write_report_files,
    load_corpus_cache,
    load_run_directory,
    main,
    parse_config_file,
    write_corpus_cache,
)
from gazescore.corpus import Essay, EssaySet, load_essays, load_set_metadata
from gazescore.experiments import ExperimentReport, FoldResult, Prediction, make_folds, save_folds
from gazescore.gaze import (
    GAZE_ATTRIBUTES,
    GAZE_CSV_COLUMNS,
    GAZE_MAX_BIN,
    BinnedGaze,
    GazeLoadReport,
    GazeRecord,
    GazeTable,
    bin_all,
    gaze_targets,
    load_gaze_records,
    load_reader_metadata,
    reader_stats,
)
from gazescore.training import TrainingDiverged

WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "blue",
         "tree", "bird", "sky", "sun", "moon", "hill"]

TINY = {
    "embedding_dim": "6",
    "conv_kernel": "3",
    "conv_filters": "4",
    "lstm_hidden": "4",
    "modeling_hidden": "4",
    "dropout": "0.0",
    "epochs": "1",
    "batch_size": "8",
}


def essay_text(rng):
    sentences = []
    for _ in range(2):
        words = [WORDS[rng.integers(len(WORDS))] for _ in range(3)]
        sentences.append(" ".join(words) + ".")
    return " ".join(sentences)


def gaze_rows(essay_id, n_tokens, reader_id):
    rows = []
    for position in range(n_tokens):
        rows.append(f"{essay_id},{reader_id},{position},w,"
                    f"{100.0 + 7.0 * position},{80.0},{position % 2},"
                    f"{1 + position % 3},0")
    return rows


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("toydata")
    rng = np.random.default_rng(42)

    (root / "article.txt").write_text("The sun rose early. Birds sang on the hill.\n")
    (root / "sets.cfg").write_text(
        "set1.score_min 0\n"
        "set1.score_max 3\n"
        "set1.article article.txt\n"
        "set3.score_min 0\n"
        "set3.score_max 3\n"
    )

    lines = ["essay_id\tset_id\ttext\tscore"]
    for i in range(10):
        lines.append(f"{100 + i}\t1\t{essay_text(rng)}\t{i % 4}")
    for i in range(6):
        lines.append(f"{900 + i}\t3\t{essay_text(rng)}\t{i % 4}")
    (root / "essays.tsv").write_text("\n".join(lines) + "\n")

    header = ("essay_id,reader_id,ia_index,token,dwell_time_ms,"
              "first_fixation_ms,is_regression,run_count,skip")
    pool_rows = [header]
    for i in range(6):
        pool_rows += gaze_rows(900 + i, 8, "r1")
        pool_rows += gaze_rows(900 + i, 8, "r2")
    (root / "gaze_pool.csv").write_text("\n".join(pool_rows) + "\n")

    set1_rows = [header]
    for i in range(10):
        set1_rows += gaze_rows(100 + i, 8, "r1")
    (root / "gaze_set1.csv").write_text("\n".join(set1_rows) + "\n")

    (root / "readers.csv").write_text(
        "reader_id,native\nr1,yes\nr2,no\n")

    vec_rng = np.random.default_rng(7)
    embed_lines = []
    for word in WORDS[:8]:
        values = " ".join(f"{v:.6f}" for v in vec_rng.uniform(-0.04, 0.04, 6))
        embed_lines.append(f"{word} {values}")
    (root / "embeddings.txt").write_text("\n".join(embed_lines) + "\n")

    base_cfg = ["essays = " + str(root / "essays.tsv"),
                "set_metadata = " + str(root / "sets.cfg")]
    for key, value in TINY.items():
        base_cfg.append(f"{key} = {value}")
    (root / "base.cfg").write_text("\n".join(base_cfg) + "\n")
    return root


@pytest.fixture(scope="module")
def prep_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "prep"
    code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                 "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pool_gaze_dir(data_dir, prep_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "gaze_pool"
    code = main(["bin-gaze", "--out", str(out),
                 "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                 "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def set1_gaze_dir(data_dir, prep_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "gaze_set1"
    code = main(["bin-gaze", "--out", str(out),
                 "--set", "gaze_csv=" + str(data_dir / "gaze_set1.csv"),
                 "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")])
    assert code == 0
    return out


def open_a_quote(path):
    """Rewrite CSV file ``path`` with a quote opened in its first row's last
    cell that no later line closes, and its rows repeated after it until the
    reader runs past its field size limit; the error that names ``path``."""
    header, first, *rest = path.read_text(encoding="utf-8").splitlines()
    *cells, last = first.split(",")
    filler = "\n".join(rest or [first])
    path.write_text("\n".join([header, ",".join([*cells, '"' + last]),
                               *[filler] * (csv.field_size_limit() // len(filler) + 1)]) + "\n",
                    encoding="utf-8")
    limit = csv.field_size_limit()
    return f"error: {path}: malformed CSV (field larger than field limit ({limit}))\n"


def run_args(data_dir, prep_dir, out, system, *extra):
    args = ["run", "--config", str(data_dir / "base.cfg"), "--out", str(out),
            "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
            "--set", "system=" + system, "--set", "target_sets=1"]
    for pair in extra:
        args += ["--set", pair]
    return args


# ------------------------------------------------------- configuration

class TestConfigFile:
    def test_key_value_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\na = 1\nb = two words \n")
        assert parse_config_file(path) == {"a": ("1", 3), "b": ("two words", 4)}

    def test_malformed_line_names_position(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("a = 1\nnonsense\n")
        with pytest.raises(Exception, match="c.cfg:2"):
            parse_config_file(path)

    def test_a_key_given_twice_exits_one_naming_both_lines(self, data_dir, tmp_path, capsys):
        # the last value won silently: vocab_size resolved to 20
        config = tmp_path / "twice.cfg"
        config.write_text((data_dir / "base.cfg").read_text()
                          + "vocab_size = 10\n# a comment\nvocab_size = 20\n")
        n = len((data_dir / "base.cfg").read_text().splitlines())
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(config), "--out", str(out), "--dry-run"]) == 1
        assert capsys.readouterr()[:] == (
            "", f"error: {config}:{n + 3}: key 'vocab_size' repeats line {n + 1}\n")
        assert not out.exists()

    def test_cli_override_wins_and_is_echoed(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run",
                     "--set", "vocab_size=123"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_options"]["vocab_size"] == "123"
        assert manifest["overrides"] == {"vocab_size": "123"}

    def test_override_with_an_empty_key_rejected(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run", "--set", " =3"])
        assert code == 1
        assert capsys.readouterr().err == "error: --set expects key=value, got ' =3'\n"
        assert not out.exists()

    @pytest.mark.parametrize("where", ["set", "config"])
    def test_key_no_command_reads_rejected(self, where, data_dir, prep_dir, tmp_path, capsys):
        # misspelled, they would leave the defaults in force and still be recorded
        out = tmp_path / "out"
        args = run_args(data_dir, prep_dir, out, "co_attention_gaze")
        if where == "set":
            args += ["--set", "learning_rte=5", "--set", "gaze_wieght_DT=3"]
            where = ""
        else:
            config = tmp_path / "typo.cfg"
            config.write_text((data_dir / "base.cfg").read_text() + "learning_rte = 5\n")
            args[args.index("--config") + 1] = str(config)
            where = f"{config}:{len(config.read_text().splitlines())}: "
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {where}unknown option 'learning_rte'\n"
        assert not out.exists()

    def test_keys_other_commands_read_are_accepted(self, data_dir, tmp_path):
        # one config file may serve every command: a key that only run reads
        # is no error for preprocess
        pairs = [f"{key}=1" for key in sorted(cli.OPTIONS)
                 if key not in ("essays", "set_metadata", "embeddings")]
        args = ["preprocess", "--config", str(data_dir / "base.cfg"), "--out",
                str(tmp_path / "out"), "--dry-run"]
        assert main(args + [arg for pair in pairs for arg in ("--set", pair)]) == 0
        assert {"fold", "attribute", "grid", "reader_filter", "gaze_weight_Skip", "run_b",
                "learning_rate", "embedding_dim"} <= cli.OPTIONS.keys()

    def test_a_bad_value_exits_one_before_anything_is_written(self, data_dir, tmp_path, capsys):
        # read only by a handler, it was never parsed under --dry-run, which exited 0
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(data_dir / "base.cfg"), "--out", str(out),
                     "--dry-run", "--set", "vocab_size=abc"]) == 1
        assert capsys.readouterr()[:] == (
            "", "error: option 'vocab_size' must be an integer, got 'abc'\n")
        assert not out.exists()

    def test_a_bad_config_value_names_its_file_and_line(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text((data_dir / "base.cfg").read_text() + "grid = 0.5, abc\n")
        n = len(config.read_text().splitlines())
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(config), "--out", str(out), "--dry-run"]) == 1
        assert capsys.readouterr()[:] == (
            "", f"error: {config}:{n}: option 'grid' must be a number, got 'abc'\n")
        assert not out.exists()

    def test_a_config_value_an_override_replaces_is_not_parsed(self, data_dir, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text((data_dir / "base.cfg").read_text() + "vocab_size = abc\n")
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(config), "--out", str(out), "--dry-run",
                     "--set", "vocab_size=12"]) == 0
        assert json.loads((out / "manifest.json").read_text())["resolved_options"][
            "vocab_size"] == "12"

    def test_seed_flag_overrides_config(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run", "--seed", "17"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 17
        resolved = (out / "resolved.cfg").read_text()
        assert "seed = 17" in resolved

    def test_model_and_train_options_are_the_numeric_config_fields(self):
        assert cli.MODEL_KEYS == {"embedding_dim": int, "conv_kernel": int, "conv_filters": int,
                                  "lstm_hidden": int, "modeling_hidden": int, "dropout": float}
        assert cli.TRAIN_KEYS == {"batch_size": int, "epochs": int, "learning_rate": float,
                                  "momentum": float, "clip_norm": float}


def _loaded_gaze(path):
    records, report = load_gaze_records(path)
    return list(records.rows()), report


@pytest.mark.parametrize("name, load", [
    ("essays.tsv", lambda path: load_essays(path, load_set_metadata(path.parent / "sets.cfg"))),
    ("sets.cfg", load_set_metadata),
    ("base.cfg", parse_config_file),
    ("readers.csv", load_reader_metadata),
    ("gaze_pool.csv", _loaded_gaze),
], ids=["essays", "set_metadata", "config", "reader_metadata", "gaze_csv"])
def test_a_byte_order_mark_is_not_read_as_text(name, load, data_dir, tmp_path):
    # read as text, the mark hid the first header or key, or broke the first essay id
    for source in ("essays.tsv", "sets.cfg", "article.txt"):
        (tmp_path / source).write_bytes((data_dir / source).read_bytes())
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + (data_dir / name).read_bytes())
    assert load(path) == load(data_dir / name)


class TestManifest:
    def test_written_with_digests_and_version(self, data_dir, prep_dir):
        manifest = json.loads((prep_dir / "manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["version"] == __version__
        assert manifest["out_dir"] == str(prep_dir)
        digests = manifest["input_digests"]
        assert str(data_dir / "essays.tsv") in digests
        assert all(v.startswith("sha256:") for v in digests.values())

    @pytest.mark.parametrize("command", ["preprocess", "bin-gaze", "train", "run",
                                         "ablate", "gridsearch", "report"])
    def test_dry_run_writes_manifest_and_resolved_config_only(
            self, command, data_dir, prep_dir, pool_gaze_dir, tmp_path):
        runs = tmp_path / "runs"
        for name in ("a", "b"):
            (runs / name).mkdir(parents=True)
            (runs / name / "report.csv").write_text(name + "\n")
        folds = tmp_path / "folds"
        folds.mkdir()
        (folds / "set_1.txt").write_text("fold\n")
        cache = prep_dir / "corpus_cache.json"
        inputs = {
            "preprocess": {"essays": data_dir / "essays.tsv",
                           "set_metadata": data_dir / "sets.cfg",
                           "embeddings": data_dir / "embeddings.txt"},
            "bin-gaze": {"gaze_csv": data_dir / "gaze_pool.csv", "corpus_cache": cache,
                         "reader_metadata": data_dir / "readers.csv"},
            "report": {"run_a": runs / "a", "run_b": runs / "b"},
        }.get(command, {"corpus_cache": cache,
                        "records_clean": pool_gaze_dir / "records_clean.csv",
                        "embeddings_cache": data_dir / "embeddings.txt",
                        "reader_metadata": data_dir / "readers.csv",
                        "folds_dir": folds})
        out = tmp_path / "dry"
        args = [command, "--out", str(out), "--dry-run"]
        for key, path in inputs.items():
            args += ["--set", f"{key}={path}"]
        assert main(args) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "resolved.cfg"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dry_run"] is True
        assert manifest["command"] == command
        files = [f for path in inputs.values()
                 for f in ([path] if path.is_file() else sorted(path.iterdir()))]
        assert sorted(manifest["input_digests"]) == sorted(str(f) for f in files)

    def test_jobs_defaults_to_the_usable_cpus(self, data_dir, prep_dir, tmp_path,
                                              monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        out = tmp_path / "run"
        assert main(run_args(data_dir, prep_dir, out, "self_attention") + ["--dry-run"]) == 0
        assert json.loads((out / "manifest.json").read_text())["jobs"] == 3

    def test_rerun_refused_without_force(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run"]) == 0
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--force" in err and "manifest" in err

    def test_force_allows_rerun(self, data_dir, tmp_path):
        out = tmp_path / "out"
        assert main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run"]) == 0
        assert main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--dry-run", "--force"]) == 0

    def test_data_dir_env_resolves_paths_and_is_echoed(self, data_dir, tmp_path,
                                                       monkeypatch):
        monkeypatch.setenv("GAZESCORE_DATA", str(data_dir))
        out = tmp_path / "out"
        code = main(["preprocess", "--out", str(out), "--dry-run",
                     "--set", "essays=essays.tsv",
                     "--set", "set_metadata=sets.cfg"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["data_dir_env"] == str(data_dir)
        assert str(data_dir / "essays.tsv") in manifest["input_digests"]


# ---------------------------------------------------------- preprocess

class TestPreprocess:
    def test_outputs_and_counts(self, prep_dir, capsys):
        assert (prep_dir / "corpus_cache.json").is_file()
        assert (prep_dir / "vocab.txt").is_file()
        report = (prep_dir / "preprocess_report.txt").read_text()
        assert "set 1: 10 essays" in report
        assert "set 3: 6 essays" in report
        assert "total essays: 16" in report

    def test_corpus_cache_round_trips(self, prep_dir):
        essays, sets = load_corpus_cache(prep_dir / "corpus_cache.json")
        assert len(essays) == 16
        assert sets[1].score_max == 3
        assert sets[1].source_article is not None
        assert sets[3].source_article is None
        assert essays[100].set_id == 1

    def test_corpus_cache_keeps_every_essay_field_but_gaze_and_every_set_field(self, tmp_path):
        sets = {1: EssaySet(1, 0, 3, source_article="Line one.\nLine, two \u00e9."),
                4: EssaySet(4, -2, 60)}
        essays = [Essay(7, 1, [["a", ","], ["\u00e9t\u00e9"]], 2, 0.1 + 0.2, False),
                  Essay(3, 4, [], -2, 5e-324, True, gaze={"r1": [None]})]
        write_corpus_cache(tmp_path / "cache.json", essays, sets)
        loaded_essays, loaded_sets = load_corpus_cache(tmp_path / "cache.json")
        assert loaded_sets == sets
        assert loaded_essays == {7: essays[0], 3: replace(essays[1], gaze=None)}
        assert [type(e.degenerate) for e in loaded_essays.values()] == [bool, bool]

    def test_corpus_cache_holds_the_bytes_json_dump_writes(self, tmp_path):
        # json.dumps' C encoder writes what json.dump's Python encoder wrote for
        # the same payload, escapes and non-ASCII text included
        sets = {2: EssaySet(2, 1, 6, source_article='Caf\u00e9 "quoted"\n\ttab\u2028 \U0001f600.')}
        essays = [Essay(5, 2, [["caf\u00e9", '"', "\\", "\x00", "\u2028"], ["\U0001f600", "/"]],
                        3, 0.1 + 0.2, False),
                  Essay(4, 2, [[]], 1, 0.0, True)]
        path = tmp_path / "cache.json"
        write_corpus_cache(path, essays, sets)
        written = path.read_bytes()
        expected = io.StringIO()
        json.dump(json.loads(written), expected, sort_keys=True, separators=(",", ":"))
        assert written == (expected.getvalue() + "\n").encode("ascii")
        assert b"caf\\u00e9" in written and b"\\ud83d\\ude00" in written
        assert load_corpus_cache(path) == ({5: essays[0], 4: essays[1]}, sets)

    def test_corpus_cache_loads_one_str_per_distinct_token(self, tmp_path):
        # the JSON parse makes a str per token occurrence; the load keeps one per token
        sets = {1: EssaySet(1, 0, 3)}
        sentences = [["river", "rose", "."], ["the", "river", "fell", "."]]
        write_corpus_cache(tmp_path / "cache.json",
                           [Essay(i, 1, sentences, 2, 2 / 3) for i in (7, 8)], sets)
        essays, _ = load_corpus_cache(tmp_path / "cache.json")
        tokens = [token for essay in essays.values() for token in essay.tokens]
        assert tokens.count("river") == 4
        assert len({id(token) for token in tokens}) == len(set(tokens))

    def test_asap_shaped_corpus_cache_loads_in_bounded_memory(self, asap_corpus_cache):
        # in a fresh interpreter, as a command loads it: the table of interned
        # strings then grows by the same steps on every run, whatever ran
        # earlier in this one; one str per token occurrence peaked at 37.4 MB here
        code = ("import sys, tracemalloc\n"
                "from gazescore.cli import load_corpus_cache\n"
                "tracemalloc.start()\n"
                "essays, _ = load_corpus_cache(sys.argv[1])\n"
                "print(tracemalloc.get_traced_memory()[1], len(essays),\n"
                "      sum(len(s) for essay in essays.values() for s in essay.sentences))\n")
        done = subprocess.run([sys.executable, "-c", code, str(asap_corpus_cache)],
                              capture_output=True, text=True, check=True,
                              env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
        peak, n_essays, n_tokens = map(int, done.stdout.split())
        assert n_essays >= 2000
        print(f"[corpus memory] {peak / 1e6:.1f} MB peak to load a corpus cache of "
              f"{n_essays} ASAP-shaped essays, {n_tokens} tokens")
        assert peak < 20e6

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_vocab_size_below_one_rejected(self, value, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"), "--out", str(out),
                     "--set", "vocab_size=" + value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: build_vocab: max_size must be >= 1, got {value}\n"
        assert not (out / "corpus_cache.json").exists()

    @pytest.mark.parametrize("edit, what", [
        (lambda cache: list(cache.values()), "the top level is not a JSON object"),
        (lambda cache: {**cache, "sets": [cache["sets"]]}, "'sets' is not a JSON object"),
        (lambda cache: {**cache, "sets": {**cache["sets"], "1": 3}},
         "set 1 is not a JSON object"),
        (lambda cache: {**cache, "essays": 5}, "'essays' is not a JSON array"),
        (lambda cache: {**cache, "essays": cache["essays"][:1] + ["essay"]},
         "essay entry 1 is not a JSON object"),
        (lambda cache: "not JSON", "not JSON (Expecting value: line 1 column 1 (char 0))"),
        (lambda cache: {**cache, "sets": {**cache["sets"], "x": cache["sets"]["1"]}},
         "set id 'x' is not an integer"),
        (lambda cache: {**cache, "sets": {"1": {**cache["sets"]["1"], "score_max": 0}}},
         "set 1: score_min 0 must be below score_max 0"),
        (lambda cache: '{"essays": [], ' + json.dumps(cache)[1:],
         "key 'essays' repeats in one object"),
    ], ids=["top_level", "sets", "set_entry", "essays", "essay_entry", "not_json", "set_key",
            "score_range", "repeated_key"])
    def test_corpus_cache_of_the_wrong_shape_exits_one_naming_it(self, edit, what, data_dir,
                                                                 prep_dir, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        edited = edit(json.loads((prep_dir / "corpus_cache.json").read_text()))
        cache.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        args = run_args(data_dir, prep_dir, tmp_path / "out", "self_attention",
                        "corpus_cache=" + str(cache))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {cache}: {what}\n"

    @pytest.mark.parametrize("case", ["repeated_essay", "unknown_set"])
    def test_corpus_cache_essay_the_corpus_cannot_hold_exits_one_before_any_cell(
            self, case, data_dir, prep_dir, tmp_path, capsys):
        # a second entry of one essay would replace the first, and an essay of
        # a set with no entry has no score range
        cache = json.loads((prep_dir / "corpus_cache.json").read_text())
        essays = cache["essays"]
        if case == "repeated_essay":
            essays.append({**essays[0], "raw_score": essays[0]["raw_score"] + 1})
            what = (f"essay entry {len(essays) - 1}: essay_id {essays[0]['essay_id']} "
                    "repeats an earlier entry")
        else:
            essays[3]["set_id"] = 77
            what = "essay entry 3: set_id 77 has no entry in 'sets'"
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(cache))
        out = tmp_path / "out"
        args = run_args(data_dir, prep_dir, out, "self_attention", "corpus_cache=" + str(path))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: {what}\n")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    @pytest.mark.parametrize("entry, key, value, what", [
        ("essays", "sentences", 5, "field 'sentences' must be list[list[str]], not int"),
        ("essays", "sentences", [["a"], "b c"],
         "field 'sentences' must be list[list[str]], not list"),
        ("essays", "sentences", [["a", 3]], "field 'sentences' must be list[list[str]], not list"),
        ("essays", "sentences", [["a"], 3], "field 'sentences' must be list[list[str]], not list"),
        ("essays", "sentences", [["a"], {"b": "c"}],
         "field 'sentences' must be list[list[str]], not list"),
        ("essays", "essay_id", True, "field 'essay_id' must be int, not bool"),
        ("essays", "raw_score", "2", "field 'raw_score' must be int, not str"),
        ("essays", "normalized_score", None, "field 'normalized_score' must be float, not NoneType"),
        ("essays", "degenerate", 0, "field 'degenerate' must be bool, not int"),
        ("sets", "score_min", 0.0, "field 'score_min' must be int, not float"),
        ("sets", "article", ["a"], "field 'article' must be str | None, not list"),
    ], ids=["sentences", "sentence", "token", "sentence_number", "sentence_object", "essay_id",
            "raw_score", "normalized_score", "degenerate", "score_min", "article"])
    def test_corpus_cache_field_of_the_wrong_type_exits_one_before_any_cell(
            self, entry, key, value, what, data_dir, prep_dir, tmp_path, capsys):
        # each field is checked against the type Essay or EssaySet declares as
        # the cache loads, rather than failing in every cell
        cache = json.loads((prep_dir / "corpus_cache.json").read_text())
        if entry == "essays":
            cache["essays"][3][key], where = value, "essay entry 3"
        else:
            cache["sets"]["1"][key], where = value, "set 1"
        path = tmp_path / "cache.json"
        path.write_text(json.dumps(cache))
        out = tmp_path / "out"
        args = run_args(data_dir, prep_dir, out, "self_attention", "corpus_cache=" + str(path))
        assert main(args) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {path}: {where}: {what}\n")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    def test_corpus_cache_takes_an_integral_score_as_a_float(self, tmp_path):
        # JSON does not tell 1 from 1.0, so an int is a float; a bool is neither
        sets = {3: EssaySet(3, 0, 3)}
        write_corpus_cache(tmp_path / "cache.json", [Essay(7, 3, [["a"]], 3, 1.0)], sets)
        cache = json.loads((tmp_path / "cache.json").read_text())
        cache["essays"][0]["normalized_score"] = 1
        (tmp_path / "cache.json").write_text(json.dumps(cache))
        assert load_corpus_cache(tmp_path / "cache.json")[0][7].normalized_score == 1

    def test_empty_essays_file_exits_nonzero_naming_it(self, data_dir, tmp_path,
                                                       capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        out = tmp_path / "out"
        code = main(["preprocess", "--out", str(out),
                     "--set", "essays=" + str(empty),
                     "--set", "set_metadata=" + str(data_dir / "sets.cfg")])
        assert code == 1
        err = capsys.readouterr().err
        assert "empty input file" in err
        assert str(empty) in err

    def test_a_repeated_set_metadata_key_exits_one_naming_its_line(self, data_dir, tmp_path,
                                                                    capsys):
        metadata = tmp_path / "sets.cfg"
        metadata.write_text("set1.score_min 0\nset1.score_max 3\nset1.score_max 12\n")
        code = main(["preprocess", "--out", str(tmp_path / "out"),
                     "--set", "essays=" + str(data_dir / "essays.tsv"),
                     "--set", "set_metadata=" + str(metadata)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == f"error: {metadata}:3: key 'set1.score_max' repeats line 2\n"

    def test_missing_input_exits_nonzero(self, data_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["preprocess", "--out", str(out),
                     "--set", "essays=" + str(tmp_path / "nope.tsv"),
                     "--set", "set_metadata=" + str(data_dir / "sets.cfg")])
        assert code == 1
        assert "cannot read input file" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, data_dir, prep_dir, tmp_path):
        out = tmp_path / "again"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out)])
        assert code == 0
        for name in ("corpus_cache.json", "vocab.txt", "preprocess_report.txt"):
            assert (out / name).read_bytes() == (prep_dir / name).read_bytes()

    def test_repeated_essay_id_rejected_naming_the_first_line(self, data_dir, tmp_path):
        essays = tmp_path / "essays.tsv"
        essays.write_text("essay_id\tset_id\ttext\tscore\n"
                          "1\t3\tThe cat sat.\t2\n"
                          "1\t3\tThe dog ran.\t1\n"
                          "2\t3\tA bird sang.\t0\n")
        out = tmp_path / "out"
        code = main(["preprocess", "--out", str(out), "--set", "essays=" + str(essays),
                     "--set", "set_metadata=" + str(data_dir / "sets.cfg")])
        assert code == 0
        report = (out / "preprocess_report.txt").read_text().splitlines()
        assert "total essays: 2" in report
        assert "rejected rows: 1" in report
        assert report[-1] == "rejected line 3: essay 1: already loaded from line 2"
        loaded, _ = load_corpus_cache(out / "corpus_cache.json")
        assert {essay_id: e.raw_score for essay_id, e in loaded.items()} == {1: 2, 2: 0}

    def test_embeddings_cache_and_coverage(self, data_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out),
                     "--set", "embeddings=" + str(data_dir / "embeddings.txt")])
        assert code == 0
        cache = (out / "embeddings_cache.txt").read_text().strip().splitlines()
        assert all(len(line.split()) == 7 for line in cache)
        report = (out / "preprocess_report.txt").read_text()
        assert "embedding coverage" in report
        assert "dimension 6" in report

    def test_embeddings_without_a_corpus_token_rejected(self, data_dir, tmp_path, capsys):
        embeddings = tmp_path / "foreign.txt"
        embeddings.write_text("zebra 0.1 0.2\nquartz 0.3 0.4\n")
        out = tmp_path / "out"
        code = main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out), "--set", "embeddings=" + str(embeddings)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: no embedding vector in {embeddings} is for a corpus token\n")
        assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "resolved.cfg"]


# ------------------------------------------------------------ bin-gaze

class TestBinGaze:
    def test_outputs(self, pool_gaze_dir):
        with open(pool_gaze_dir / "binned_labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 96  # 6 essays x 8 tokens x 2 readers
        assert {row["reader_id"] for row in rows} == {"r1", "r2"}
        assert all(1 <= int(row["dt_bin"]) <= 5 for row in rows)
        stats = (pool_gaze_dir / "reader_stats.txt").read_text().splitlines()
        assert len(stats) == 3  # header + two readers
        assert (pool_gaze_dir / "alignment_errors.log").read_text() == ""

    def test_binned_labels_sorted_and_equal_to_the_training_targets(self, data_dir, prep_dir,
                                                                    tmp_path, capsys):
        # records arrive shuffled, from readers whose first appearance is not their sort order
        rows = (gaze_rows(901, 8, "r2") + gaze_rows(900, 6, "r1") + gaze_rows(901, 5, "r1")
                + gaze_rows(900, 8, "r2"))
        rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
        gaze_csv = tmp_path / "gaze.csv"
        gaze_csv.write_text(",".join(GAZE_CSV_COLUMNS) + "\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out), "--set", "gaze_csv=" + str(gaze_csv),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")])
        assert code == 0
        assert "binned tokens: 27," in capsys.readouterr().out
        with open(out / "binned_labels.csv", newline="") as fh:
            labels = list(csv.DictReader(fh))
        keys = [(int(row["essay_id"]), row["reader_id"], int(row["ia_index"])) for row in labels]
        assert len(keys) == 27 and keys == sorted(keys)

        records, _ = load_gaze_records(gaze_csv)
        essays, _ = load_corpus_cache(prep_dir / "corpus_cache.json")
        sequences, _ = bin_all(records, reader_stats(records, essays), essays)
        assert sorted(sequences) == [900, 901]
        for essay_id, gaze in sequences.items():
            essay_rows = [row for row in labels if int(row["essay_id"]) == essay_id]
            expected = gaze_targets(gaze)
            assert tuple(expected) == GAZE_ATTRIBUTES
            for attribute, field in zip(GAZE_ATTRIBUTES, BinnedGaze._fields):
                positions, values = expected[attribute]
                assert [int(row["ia_index"]) for row in essay_rows] == positions.tolist()
                assert [int(row[field]) / GAZE_MAX_BIN[attribute]
                        for row in essay_rows] == values.tolist()

    def test_a_duplicated_row_leaves_the_reader_statistics_and_bins_as_they_were(
            self, data_dir, prep_dir, pool_gaze_dir, tmp_path):
        # the repeated row has a dwell time away from its reader's mean, so
        # counting it again would move that reader's statistics and bins
        header, *rows = (data_dir / "gaze_pool.csv").read_text().splitlines()
        dwell = GAZE_CSV_COLUMNS.index("dwell_time_ms")
        times = [float(row.split(",")[dwell]) for row in rows]
        repeated = max(range(len(rows)), key=lambda k: abs(times[k] - np.mean(times)))
        gaze_csv = tmp_path / "gaze.csv"
        gaze_csv.write_text("\n".join([header, *rows, rows[repeated]]) + "\n")
        out = tmp_path / "out"
        assert main(["bin-gaze", "--out", str(out), "--set", "gaze_csv=" + str(gaze_csv),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")]) == 0
        for name in ("reader_stats.txt", "binned_labels.csv"):
            assert (out / name).read_bytes() == (pool_gaze_dir / name).read_bytes(), name
        essay_id, reader_id, ia_index = rows[repeated].split(",")[:3]
        assert (out / "alignment_errors.log").read_text() == (
            f"essay {essay_id}, reader {reader_id}: duplicate record for token {ia_index}\n")

    def test_unplaceable_rows_leave_the_reader_statistics_and_bins_as_they_were(
            self, data_dir, prep_dir, pool_gaze_dir, tmp_path):
        # one row beyond its essay's last token and one for an essay the corpus
        # lacks, each with a dwell time far from its reader's mean: the
        # statistics read only the rows bin-gaze places, and each bad row keeps
        # its diagnostic
        header, *rows = (data_dir / "gaze_pool.csv").read_text().splitlines()
        essay_id, reader_id = rows[0].split(",")[:2]
        cells = rows[0].split(",")
        dwell, first = GAZE_CSV_COLUMNS.index("dwell_time_ms"), GAZE_CSV_COLUMNS.index(
            "first_fixation_ms")
        cells[dwell], cells[first] = "9000", "8000"
        beyond = ",".join([essay_id, reader_id, "99999", *cells[3:]])
        missing = ",".join(["424242", reader_id, *cells[2:]])
        gaze_csv = tmp_path / "gaze.csv"
        gaze_csv.write_text("\n".join([header, *rows, beyond, missing]) + "\n")
        out = tmp_path / "out"
        assert main(["bin-gaze", "--out", str(out), "--set", "gaze_csv=" + str(gaze_csv),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")]) == 0
        for name in ("reader_stats.txt", "binned_labels.csv"):
            assert (out / name).read_bytes() == (pool_gaze_dir / name).read_bytes(), name
        essays, _ = load_corpus_cache(prep_dir / "corpus_cache.json")
        n_tokens = len(essays[int(essay_id)].tokens)
        assert (out / "alignment_errors.log").read_text() == (
            f"essay {essay_id}, reader {reader_id}: ia_index 99999 out of range for "
            f"{n_tokens} tokens\n"
            f"essay 424242: no such essay for reader {reader_id}\n")

    def test_clean_records_round_trip(self, pool_gaze_dir):
        records, report = load_gaze_records(pool_gaze_dir / "records_clean.csv")
        assert len(records) == 96
        assert not report.rejected

    def test_written_records_load_back_equal(self, tmp_path):
        records = [GazeRecord(7, "r1", 0, "the", 0.1 + 0.2, 1 / 7, 1, 2, 0),
                   GazeRecord(7, "r2", 3, "a,b", 1e-320, 0.0, 0, 1, 0),
                   GazeRecord(8, "r1", 1, "cat", 0.0, 0.0, 0, 0, 1)]
        _write_records_csv(tmp_path / "records.csv", GazeTable.from_records(records))
        loaded, report = load_gaze_records(tmp_path / "records.csv")
        assert (list(loaded.rows()), report) == (records, GazeLoadReport([], 3))

    def test_empty_gaze_file_warns_and_exits_zero(self, prep_dir, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out),
                     "--set", "gaze_csv=" + str(empty),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")])
        assert code == 0
        assert "warning" in capsys.readouterr().err
        assert (out / "binned_labels.csv").is_file()

    def test_all_rows_failing_exits_nonzero(self, prep_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "essay_id,reader_id,ia_index,token,dwell_time_ms,"
            "first_fixation_ms,is_regression,run_count,skip\n"
            "100,r1,999,w,100.0,80.0,0,1,0\n"
            "100,r1,998,w,100.0,80.0,0,1,0\n")
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out),
                     "--set", "gaze_csv=" + str(bad),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")])
        assert code == 1
        assert "all 2 gaze rows failed" in capsys.readouterr().err

    def test_all_rows_the_filter_keeps_failing_exits_nonzero(self, prep_dir, tmp_path, capsys):
        # the r2 row would bin, but the filter drops it, so no row the command considers bins
        gaze_csv = tmp_path / "gaze.csv"
        gaze_csv.write_text(",".join(GAZE_CSV_COLUMNS) + "\n"
                            "100,r1,999,w,100.0,80.0,0,1,0\n"
                            "100,r1,998,w,100.0,80.0,0,1,0\n"
                            "100,r2,0,w,100.0,80.0,0,1,0\n")
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out), "--set", "gaze_csv=" + str(gaze_csv),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_filter=r1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == "rows: 3, kept records: 2, binned tokens: 0, readers: 1\n"
        assert captured.err == (f"error: all 2 gaze rows failed; see "
                                f"{out / 'alignment_errors.log'}\n")

    def test_partial_failures_logged_but_exit_zero(self, data_dir, prep_dir,
                                                   tmp_path):
        mixed = tmp_path / "mixed.csv"
        good = gaze_rows(900, 8, "r1")
        mixed.write_text(
            "essay_id,reader_id,ia_index,token,dwell_time_ms,"
            "first_fixation_ms,is_regression,run_count,skip\n"
            + "\n".join(good) + "\n"
            + "900,r1,999,w,100.0,80.0,0,1,0\n")
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out),
                     "--set", "gaze_csv=" + str(mixed),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")])
        assert code == 0
        log = (out / "alignment_errors.log").read_text()
        assert "999" in log

    @pytest.mark.parametrize("key, source", [("gaze_csv", "gaze_pool.csv"),
                                             ("reader_metadata", "readers.csv")])
    def test_an_unbalanced_quote_exits_one_naming_the_file(self, key, source, data_dir,
                                                           prep_dir, tmp_path, capsys):
        # the CSV reader raised its own error, which escaped main as a traceback
        copy = tmp_path / source
        copy.write_bytes((data_dir / source).read_bytes())
        error = open_a_quote(copy)
        paths = {"gaze_csv": data_dir / "gaze_pool.csv",
                 "reader_metadata": data_dir / "readers.csv", key: copy}
        code = main(["bin-gaze", "--out", str(tmp_path / "out"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     *(f"--set={name}={path}" for name, path in paths.items())])
        assert code == 1
        assert capsys.readouterr()[:] == ("", error)

    def test_a_short_reader_metadata_row_exits_one_naming_the_file(self, data_dir, prep_dir,
                                                                   tmp_path, capsys):
        # the csv reader gives a cell past a row's end as None, whose .strip()
        # escaped main as an AttributeError traceback
        readers = tmp_path / "readers.csv"
        readers.write_text("reader_id,native\nr1,yes\nr5\n", encoding="utf-8")
        code = main(["bin-gaze", "--out", str(tmp_path / "out"),
                     "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_metadata=" + str(readers)])
        assert code == 1
        assert capsys.readouterr()[:] == ("", f"error: {readers}:3: no native cell\n")

    def test_a_reader_listed_twice_exits_one_naming_its_line(self, data_dir, prep_dir, tmp_path,
                                                            capsys):
        # r1 loaded as native, so native_only kept a reader the file also calls non-native
        readers = tmp_path / "readers.csv"
        readers.write_text("reader_id,native\nr1,yes\nr2,no\n r1 ,no\n", encoding="utf-8")
        code = main(["bin-gaze", "--out", str(tmp_path / "out"),
                     "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_metadata=" + str(readers),
                     "--set", "reader_filter=native_only"])
        assert code == 1
        assert capsys.readouterr()[:] == ("", f"error: {readers}:4: reader 'r1' repeats line 2\n")

    def test_a_blank_reader_id_exits_one_naming_its_line(self, data_dir, prep_dir, tmp_path,
                                                         capsys):
        # it loaded as a reader named ''
        readers = tmp_path / "readers.csv"
        readers.write_text("reader_id,native\nr1,yes\n  ,no\n", encoding="utf-8")
        code = main(["bin-gaze", "--out", str(tmp_path / "out"),
                     "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_metadata=" + str(readers)])
        assert code == 1
        assert capsys.readouterr()[:] == ("", f"error: {readers}:3: reader_id is blank\n")

    @pytest.mark.parametrize("command, key, source, separator, text_column", [
        ("bin-gaze", "gaze_csv", "gaze_pool.csv", b",", 3),
        ("preprocess", "essays", "essays.tsv", b"\t", 2)], ids=["gaze_csv", "essays"])
    def test_a_file_that_is_not_utf8_exits_one_naming_it(self, command, key, source, separator,
                                                          text_column, data_dir, prep_dir,
                                                          tmp_path, capsys):
        # the decoder's error, which names no file, was printed as it was
        copy = tmp_path / source
        lines = (data_dir / source).read_bytes().split(b"\n")
        cells = lines[1].split(separator)
        cells[text_column] = b"\xff" + cells[text_column]  # a byte no UTF-8 text holds
        lines[1] = separator.join(cells)
        copy.write_bytes(b"\n".join(lines))
        try:
            copy.read_bytes().decode("utf-8")
        except UnicodeDecodeError as error:
            reason = error
        inputs = {"bin-gaze": ["--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")],
                  "preprocess": ["--set", "set_metadata=" + str(data_dir / "sets.cfg")]}
        code = main([command, "--out", str(tmp_path / "out"), "--set", f"{key}={copy}",
                     *inputs[command]])
        assert code == 1
        assert capsys.readouterr()[:] == ("", f"error: {copy}: not UTF-8 ({reason})\n")

    def test_native_only_filter(self, data_dir, prep_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out),
                     "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_metadata=" + str(data_dir / "readers.csv"),
                     "--set", "reader_filter=native_only"])
        assert code == 0
        with open(out / "binned_labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 48
        assert {row["reader_id"] for row in rows} == {"r1"}

    @pytest.mark.parametrize("name", ["R1", "nobody"])  # R1: a typo for r1
    def test_filter_keeping_no_reader_exits_nonzero(self, name, data_dir, prep_dir, tmp_path,
                                                    capsys):
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out),
                     "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_filter=" + name])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: reader_filter {name!r} keeps no reader of the 96 "
                                f"valid gaze rows in {data_dir / 'gaze_pool.csv'}\n")
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    def test_native_only_without_metadata_fails(self, data_dir, prep_dir,
                                                tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["bin-gaze", "--out", str(out),
                     "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "reader_filter=native_only"])
        assert code == 1
        assert "native" in capsys.readouterr().err


# ----------------------------------------------------------------- run

class TestRun:
    def test_self_attention_full_run(self, data_dir, prep_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(run_args(data_dir, prep_dir, out, "self_attention"))
        assert code == 0
        stdout = capsys.readouterr().out
        assert "grand mean qwk" in stdout
        for name in ("report.txt", "report.csv", "predictions.csv"):
            assert (out / name).is_file()
        fold_file = out / "folds" / "set_1.txt"
        assert fold_file.is_file()
        assert len(fold_file.read_text().strip().splitlines()) == 50

    def test_report_csv_has_five_folds(self, data_dir, prep_dir, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, prep_dir, out, "self_attention")) == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert [int(r["fold_id"]) for r in rows] == [0, 1, 2, 3, 4]
        assert all(r["system"] == "self_attention" for r in rows)

    def test_predictions_cover_each_test_partition(self, data_dir, prep_dir,
                                                   tmp_path):
        out = tmp_path / "run"
        assert main(run_args(data_dir, prep_dir, out, "self_attention")) == 0
        with open(out / "predictions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10  # 5 folds x 2 test essays
        assert len({row["essay_id"] for row in rows}) == 10

    def test_co_attention_without_article_fails_before_training(
            self, data_dir, prep_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(run_args(data_dir, prep_dir, out, "co_attention",
                             "target_sets=3"))
        assert code == 1
        assert "source article" in capsys.readouterr().err
        assert not (out / "report.csv").exists()
        assert (out / "manifest.json").is_file()

    def test_duplicate_target_set_exits_one(self, data_dir, prep_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(run_args(data_dir, prep_dir, out, "self_attention", "target_sets=3,3"))
        assert code == 1
        assert capsys.readouterr().err == "error: target_sets lists [3] more than once\n"
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("option", ["clip_norm=0", "clip_norm=nan", "learning_rate=nan",
                                        "learning_rate=-0.01", "momentum=1"])
    def test_a_bad_optimizer_option_exits_one_before_any_cell(self, option, data_dir, prep_dir,
                                                               tmp_path, capsys):
        # each once failed every cell, or trained with clipping off or by gradient ascent
        out = tmp_path / "run"
        assert main(run_args(data_dir, prep_dir, out, "self_attention", option)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option.split('=')[0]} must be ")
        assert len(captured.err.splitlines()) == 1
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    def test_rejected_run_leaves_only_its_manifest(self, data_dir, prep_dir, pool_gaze_dir,
                                                   tmp_path, capsys):
        # every run-wide check precedes the first cell and the generated fold files
        records = "records_clean=" + str(pool_gaze_dir / "records_clean.csv")
        cache = json.loads((prep_dir / "corpus_cache.json").read_text())
        cache["sets"]["1"]["article"] = " \n\t"
        tokenless = tmp_path / "tokenless_article.json"
        tokenless.write_text(json.dumps(cache))
        del cache["essays"][0]["raw_score"]
        no_score = tmp_path / "no_score.json"
        no_score.write_text(json.dumps(cache))
        cases = [
            ("run", "self_attention", "target_sets=3,3"),
            ("run", "self_attention", "dropout=1.5"),
            ("run", "self_attention", "conv_kernel=4"),
            ("run", "self_attention", "epochs=-1"),
            # sizes below 1: a zero dimension scores every essay 0.5, and a
            # negative vocab_size would drop the rarest tokens
            ("run", "self_attention", "conv_filters=0", "vocab_size=-1"),
            ("run", "self_attention", "vocab_size=-1"),
            ("train", "self_attention", "embedding_dim=0"),
            ("run", "self_attention", "conv_kernel=-1"),
            ("run", "self_attention", "target_sets=9"),
            ("run", "co_attention", "target_sets=3"),
            ("run", "essays_gaze"),
            ("run", "essays_gaze", records, "gaze_attributes=,"),
            ("run", "self_attention", "corpus_cache=" + str(no_score)),
            # the fixture embeddings are 6-d
            ("run", "self_attention", "embeddings_cache=" + str(data_dir / "embeddings.txt"),
             "embedding_dim=5"),
            ("ablate", "essays_gaze", records, "attribute=XX"),
            ("gridsearch", "self_attention"),
            ("gridsearch", "essays_gaze", records, "dropout=1.5"),
            # the grid is scored on dev gaze, and set 1's dev essays have none
            ("gridsearch", "essays_gaze", records, "gaze_attributes=DT", "grid=0.05,0.5"),
            ("train", "self_attention", "fold=9"),
            # readers are selected once, as the records load, not in each cell
            *[(command, "essays_gaze", records, "reader_filter=nobody", "attribute=DT")
              for command in ("train", "run", "ablate", "gridsearch")],
            ("run", "essays_gaze", records, "reader_filter=native_only"),
            ("run", "co_attention", "corpus_cache=" + str(tokenless)),
        ]
        for k, (command, system, *extra) in enumerate(cases):
            for jobs in ("1", "2"):
                out = tmp_path / f"{k}-{jobs}"
                args = run_args(data_dir, prep_dir, out, system, *extra) + ["--jobs", jobs]
                args[0] = command
                assert main(args) == 1, (command, system, extra)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert len(captured.err.splitlines()) == 1
                assert captured.err.startswith("error: ")
                assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                                  "resolved.cfg"]

    @pytest.mark.parametrize("command, pair, value", [("run", "gaze_weight_DT=nan", "nan"),
                                                      ("train", "gaze_weight_DT=inf", "inf"),
                                                      ("gridsearch", "grid=0.05,nan", "nan")])
    def test_non_finite_gaze_weight_rejected_before_any_cell(self, command, pair, value,
                                                              data_dir, prep_dir, set1_gaze_dir,
                                                              tmp_path, capsys):
        records = "records_clean=" + str(set1_gaze_dir / "records_clean.csv")
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            args = run_args(data_dir, prep_dir, out, "co_attention_gaze", records,
                            "gaze_attributes=DT", pair) + ["--jobs", jobs]
            args[0] = command
            assert main(args) == 1
            captured = capsys.readouterr()
            assert captured.err == f"error: gaze loss weight for DT must be finite, got {value}\n"
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    @pytest.mark.parametrize("command, pair, value", [("run", "gaze_weight_DT=-0.05", "-0.05"),
                                                      ("gridsearch", "grid=0.05,-1", "-1.0")])
    def test_negative_gaze_weight_rejected_before_any_cell(self, command, pair, value,
                                                           data_dir, prep_dir, set1_gaze_dir,
                                                           tmp_path, capsys):
        records = "records_clean=" + str(set1_gaze_dir / "records_clean.csv")
        out = tmp_path / "out"
        args = run_args(data_dir, prep_dir, out, "essays_gaze", records,
                        "gaze_attributes=DT", pair)
        args[0] = command
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: gaze loss weight for DT must be >= 0, got {value}\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    def test_essays_gaze_augments_with_pool(self, data_dir, prep_dir,
                                            pool_gaze_dir, tmp_path):
        out = tmp_path / "run"
        code = main(run_args(
            data_dir, prep_dir, out, "essays_gaze",
            "records_clean=" + str(pool_gaze_dir / "records_clean.csv")))
        assert code == 0
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(int(r["n_augmented"]) == 6 for r in rows)
        assert all(int(r["n_train"]) == 12 for r in rows)

    @pytest.mark.parametrize("system, pool", [("self_attention", []),
                                              ("essays_gaze", [900, 901])])
    def test_cells_get_only_their_target_sets_and_pool_essays(
            self, system, pool, data_dir, prep_dir, pool_gaze_dir, tmp_path, monkeypatch):
        # set 3's essays outside the pool are read by no cell, so no worker
        # holds them; the cells' results are those they give on the whole corpus
        corpus, _ = load_corpus_cache(prep_dir / "corpus_cache.json")
        given = []

        def execute_on_both(task, data, cells, jobs, log=None):
            given.append(set(data.essays))
            whole = experiments.execute_cells(task, replace(data, essays=corpus), cells, jobs)
            outcome = experiments.execute_cells(task, data, cells, jobs, log)
            assert repr(outcome) == repr(whole)
            return outcome

        monkeypatch.setattr(cli, "execute_cells", execute_on_both)
        pairs = [f"gaze_essay_ids={','.join(map(str, pool))}",
                 "records_clean=" + str(pool_gaze_dir / "records_clean.csv")] if pool else []
        assert main(run_args(data_dir, prep_dir, tmp_path / "run", system, *pairs)) == 0
        assert given == [set(range(100, 110)) | set(pool)]

    def test_reader_filter_matches_records_filtered_by_bin_gaze(self, data_dir, prep_dir,
                                                                tmp_path):
        # reader r2 reads each pool essay back to front, so its bins differ from r1's
        rows = [line.split(",") for line in (data_dir / "gaze_pool.csv").read_text().split()]
        for row in rows:
            if row[1] == "r2":
                row[2] = str(7 - int(row[2]))
        gaze_csv = tmp_path / "gaze.csv"
        gaze_csv.write_text("".join(",".join(row) + "\n" for row in rows))

        def records(name, *extra):
            args = ["bin-gaze", "--out", str(tmp_path / name),
                    "--set", "gaze_csv=" + str(gaze_csv),
                    "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json")]
            assert main(args + [arg for pair in extra for arg in ("--set", pair)]) == 0
            return "records_clean=" + str(tmp_path / name / "records_clean.csv")

        def run(name, *extra):
            out = tmp_path / name
            assert main(run_args(data_dir, prep_dir, out, "essays_gaze", *extra)) == 0
            return [(out / file).read_bytes() for file in ("report.csv", "predictions.csv")]

        both, only_r1 = records("both"), records("only_r1", "reader_filter=r1")
        selected = run("selected", both, "reader_filter=r1")
        assert selected == run("filtered", only_r1)
        assert selected != run("unfiltered", both)

    def test_default_gaze_pool_leaves_out_essays_missing_from_the_corpus(
            self, data_dir, prep_dir, pool_gaze_dir, tmp_path, capsys):
        records = tmp_path / "records_clean.csv"
        records.write_text((pool_gaze_dir / "records_clean.csv").read_text()
                           + "".join(row + "\n" for row in gaze_rows(5555, 8, "r1")))
        out = tmp_path / "run"
        assert main(run_args(data_dir, prep_dir, out, "essays_gaze",
                             "records_clean=" + str(records))) == 0
        assert capsys.readouterr().err == (
            "warning: gaze pool leaves out essays missing from the corpus [5555]\n")
        with open(out / "report.csv", newline="") as fh:
            assert all(int(r["n_augmented"]) == 6 for r in csv.DictReader(fh))
        # a pool named explicitly must hold only corpus essays
        assert main(run_args(data_dir, prep_dir, tmp_path / "named", "essays_gaze",
                             "records_clean=" + str(records),
                             "gaze_essay_ids=900,901,902,903,904,905,5555")) == 1
        assert capsys.readouterr().err == "error: gaze pool references unknown essays [5555]\n"

    def test_shared_folds_dir_reused(self, data_dir, prep_dir, tmp_path):
        first = tmp_path / "first"
        assert main(run_args(data_dir, prep_dir, first, "self_attention")) == 0
        second = tmp_path / "second"
        code = main(run_args(data_dir, prep_dir, second, "only_prompt",
                             "folds_dir=" + str(first / "folds")))
        assert code == 0
        assert not (second / "folds").exists()
        with open(first / "predictions.csv", newline="") as fh:
            ids_a = {r["essay_id"] for r in csv.DictReader(fh)}
        with open(second / "predictions.csv", newline="") as fh:
            ids_b = {r["essay_id"] for r in csv.DictReader(fh)}
        assert ids_a == ids_b

    def test_jobs_two_matches_sequential(self, data_dir, prep_dir, tmp_path):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        assert main(run_args(data_dir, prep_dir, seq, "self_attention") + ["--jobs", "1"]) == 0
        code = main(run_args(data_dir, prep_dir, par, "self_attention")
                    + ["--jobs", "2"])
        assert code == 0
        assert (par / "report.csv").read_bytes() == (seq / "report.csv").read_bytes()
        assert (par / "predictions.csv").read_bytes() == \
               (seq / "predictions.csv").read_bytes()

    def test_run_with_embedding_cache(self, data_dir, prep_dir, tmp_path):
        emb_out = tmp_path / "prep_emb"
        assert main(["preprocess", "--config", str(data_dir / "base.cfg"),
                     "--out", str(emb_out),
                     "--set", "embeddings=" + str(data_dir / "embeddings.txt")]) == 0
        out = tmp_path / "run"
        code = main(run_args(
            data_dir, prep_dir, out, "self_attention",
            "embeddings_cache=" + str(emb_out / "embeddings_cache.txt")))
        assert code == 0

    def test_embedding_dim_defaults_to_the_embeddings_size(self, data_dir, prep_dir, tmp_path):
        # the fixture embeddings are 6-d, the embedding_dim that base.cfg names
        base = data_dir / "base.cfg"
        unsized = tmp_path / "unsized.cfg"
        unsized.write_text("".join(line for line in base.read_text().splitlines(keepends=True)
                                   if not line.startswith("embedding_dim")))
        outputs = []
        for config in (base, unsized):
            out = tmp_path / config.stem
            args = run_args(data_dir, prep_dir, out, "self_attention",
                            "embeddings_cache=" + str(data_dir / "embeddings.txt"))
            args[2] = str(config)
            assert main(args) == 0
            outputs.append({path.relative_to(out): path.read_bytes()
                            for path in sorted(out.rglob("*")) if path.is_file()
                            and path.name not in ("manifest.json", "resolved.cfg")})
        assert Path("report.csv") in outputs[0]
        assert outputs[0] == outputs[1]

    def test_dry_run_does_no_training(self, data_dir, prep_dir, tmp_path):
        out = tmp_path / "run"
        code = main(run_args(data_dir, prep_dir, out, "self_attention")
                    + ["--dry-run"])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["manifest.json", "resolved.cfg"]


# --------------------------------------------------------------- train

class TestTrain:
    def test_single_fold_training(self, data_dir, prep_dir, tmp_path, capsys):
        outs = {jobs: tmp_path / f"train{jobs}" for jobs in ("1", "2")}
        for jobs, out in outs.items():
            code = main(["train", "--config", str(data_dir / "base.cfg"),
                         "--out", str(out), "--jobs", jobs,
                         "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                         "--set", "set=1", "--set", "fold=0",
                         "--set", "epochs=2"])
            assert code == 0
        out = outs["1"]
        state = load_checkpoint(out / "checkpoint_best.txt")
        assert "embedding" in state
        assert load_checkpoint(out / "checkpoint_final.txt").keys() == state.keys()
        history = (out / "history.log").read_text().strip().splitlines()
        assert len(history) == 2
        assert history[0].startswith("epoch=1 ")
        assert "best_epoch=" in (out / "train_summary.txt").read_text()
        for name in ("checkpoint_best.txt", "checkpoint_final.txt", "history.log",
                     "train_summary.txt"):
            assert (outs["2"] / name).read_bytes() == (out / name).read_bytes()

    def test_fold_out_of_range(self, data_dir, prep_dir, tmp_path, capsys):
        out = tmp_path / "train"
        code = main(["train", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "set=1", "--set", "fold=9"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_fold_names_a_fold_id_not_a_position(self, data_dir, prep_dir, tmp_path, capsys):
        folds = make_folds(range(100, 110), seed=0)
        one_based, alone = tmp_path / "one_based", tmp_path / "alone"
        one_based.mkdir()
        alone.mkdir()
        save_folds(one_based / "set_1.txt", [replace(f, fold_id=f.fold_id + 1) for f in folds])
        save_folds(alone / "set_1.txt", [replace(folds[0], fold_id=1)])

        def train(folds_dir, fold, out):
            return main(["train", "--config", str(data_dir / "base.cfg"),
                         "--out", str(tmp_path / out),
                         "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                         "--set", "folds_dir=" + str(folds_dir),
                         "--set", "set=1", "--set", "fold=" + fold])

        assert train(one_based, "1", "a") == 0
        assert train(alone, "1", "b") == 0
        assert (tmp_path / "a" / "checkpoint_final.txt").read_bytes() == \
               (tmp_path / "b" / "checkpoint_final.txt").read_bytes()
        assert train(one_based, "0", "c") == 1
        err = capsys.readouterr().err
        assert "fold 0 out of range; set 1 has fold ids [1, 2, 3, 4, 5]" in err

    @pytest.mark.parametrize("system, target_set, message", [
        ("extra_essays", "1", "needs a gaze essay pool to augment with"),
        ("co_attention", "3", "needs a source article but set 3 has none"),
        ("essays_gaze", "1", "needs gaze records"),
    ], ids=["no_pool", "no_article", "no_records"])
    def test_train_checks_what_run_checks(self, system, target_set, message, data_dir,
                                          prep_dir, tmp_path, capsys):
        args = run_args(data_dir, prep_dir, tmp_path / "run", system,
                        "target_sets=" + target_set)
        assert main(args) == 1
        run_err = capsys.readouterr().err
        assert message in run_err
        args[0], args[4] = "train", str(tmp_path / "train")
        assert main(args) == 1
        assert capsys.readouterr().err == run_err
        assert not (tmp_path / "train" / "checkpoint_final.txt").exists()

    def test_system_required_except_by_train(self, data_dir, prep_dir, tmp_path, capsys):
        common = ["--config", str(data_dir / "base.cfg"),
                  "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                  "--set", "target_sets=1"]
        for command in ("run", "ablate", "gridsearch"):
            assert main([command, "--out", str(tmp_path / command)] + common) == 1
            assert "missing required option 'system'" in capsys.readouterr().err
        assert main(["train", "--out", str(tmp_path / "default")] + common) == 0
        assert main(["train", "--out", str(tmp_path / "explicit")] + common
                    + ["--set", "system=self_attention"]) == 0
        for name in ("checkpoint_final.txt", "history.log", "train_summary.txt"):
            assert ((tmp_path / "default" / name).read_bytes()
                    == (tmp_path / "explicit" / name).read_bytes())


# -------------------------------------------------------------- ablate

class TestAblate:
    def test_zero_weight_attribute_gives_zero_delta(self, data_dir, prep_dir,
                                                    pool_gaze_dir, tmp_path,
                                                    capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "records_clean=" + str(pool_gaze_dir / "records_clean.csv"),
                     "--set", "system=essays_gaze", "--set", "target_sets=1",
                     "--set", "gaze_attributes=DT",
                     "--set", "gaze_weight_DT=0.0",
                     "--set", "attribute=DT"])
        assert code == 0
        text = (out / "ablation.txt").read_text()
        assert "grand delta qwk: 0\n" in text
        assert (out / "full_report.csv").is_file()
        assert (out / "ablated_report.csv").is_file()

    def test_jobs_two_matches_sequential(self, data_dir, prep_dir, pool_gaze_dir,
                                         tmp_path):
        outs = {}
        for jobs in ("1", "2"):
            outs[jobs] = tmp_path / f"jobs{jobs}"
            assert main(["ablate", "--config", str(data_dir / "base.cfg"),
                         "--out", str(outs[jobs]), "--jobs", jobs,
                         "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                         "--set", "records_clean=" + str(pool_gaze_dir / "records_clean.csv"),
                         "--set", "system=essays_gaze", "--set", "target_sets=1",
                         "--set", "gaze_attributes=DT,Skip",
                         "--set", "attribute=Skip"]) == 0
        for name in ("ablation.txt", "full_report.csv", "full_predictions.csv",
                     "ablated_report.csv", "ablated_predictions.csv"):
            assert (outs["2"] / name).read_bytes() == (outs["1"] / name).read_bytes()

    def test_missing_attribute_option(self, data_dir, prep_dir, pool_gaze_dir,
                                      tmp_path, capsys):
        out = tmp_path / "ablate"
        code = main(["ablate", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "records_clean=" + str(pool_gaze_dir / "records_clean.csv"),
                     "--set", "system=essays_gaze", "--set", "target_sets=1"])
        assert code == 1
        assert "attribute" in capsys.readouterr().err


# ---------------------------------------------------------- gridsearch

class TestGridsearch:
    def gridsearch_args(self, data_dir, prep_dir, set1_gaze_dir, out):
        return ["gridsearch", "--config", str(data_dir / "base.cfg"),
                "--out", str(out),
                "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                "--set", "records_clean=" + str(set1_gaze_dir / "records_clean.csv"),
                "--set", "system=co_attention_gaze", "--set", "target_sets=1",
                "--set", "gaze_attributes=DT",
                "--set", "grid=0.05,0.1"]

    def test_selects_best_weight(self, data_dir, prep_dir, set1_gaze_dir,
                                 tmp_path):
        out = tmp_path / "grid"
        code = main(self.gridsearch_args(data_dir, prep_dir, set1_gaze_dir, out))
        assert code == 0
        with open(out / "gridsearch.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert sum(int(r["best"]) for r in rows) == 1
        text = (out / "gridsearch.txt").read_text()
        assert "best DT:" in text

    def test_jobs_two_matches_sequential(self, data_dir, prep_dir,
                                         set1_gaze_dir, tmp_path):
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        assert main(self.gridsearch_args(
            data_dir, prep_dir, set1_gaze_dir, seq) + ["--jobs", "1"]) == 0
        assert main(self.gridsearch_args(
            data_dir, prep_dir, set1_gaze_dir, par) + ["--jobs", "2"]) == 0
        assert (par / "gridsearch.csv").read_bytes() == \
               (seq / "gridsearch.csv").read_bytes()

    def test_gazeless_system_rejected(self, data_dir, prep_dir, tmp_path,
                                      capsys):
        out = tmp_path / "grid"
        code = main(["gridsearch", "--config", str(data_dir / "base.cfg"),
                     "--out", str(out),
                     "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                     "--set", "system=self_attention", "--set", "target_sets=1"])
        assert code == 1
        assert "no gaze loss" in capsys.readouterr().err


# -------------------------------------------------------------- report

@pytest.fixture(scope="module")
def two_runs(data_dir, prep_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("cmp")
    first = base / "a"
    assert main(run_args(data_dir, prep_dir, first, "self_attention")) == 0
    second = base / "b"
    assert main(run_args(data_dir, prep_dir, second, "only_prompt",
                         "folds_dir=" + str(first / "folds"))
                + ["--seed", "5"]) == 0
    return first, second


class TestReport:
    def test_render_single_run(self, two_runs, tmp_path, capsys):
        first, _ = two_runs
        out = tmp_path / "report"
        code = main(["report", "--out", str(out),
                     "--set", "run_a=" + str(first)])
        assert code == 0
        assert "grand mean qwk" in capsys.readouterr().out
        assert (out / "rendered_report.txt").is_file()

    def test_render_takes_seed_from_manifest(self, two_runs, tmp_path, capsys):
        _, second = two_runs
        out = tmp_path / "report"
        code = main(["report", "--out", str(out),
                     "--set", "run_a=" + str(second)])
        assert code == 0
        assert "seed: 5" in capsys.readouterr().out

    @pytest.mark.parametrize("name, field, message", [
        ("manifest.json", None, "cannot read run file: {}"),
        ("manifest.json", "seed", "{}: missing field 'seed'"),
        ("report.csv", "test_qwk", "{}: missing column 'test_qwk'"),
        ("predictions.csv", "squared_error", "{}: missing column 'squared_error'"),
    ], ids=["no_file", "no_seed", "no_report_column", "no_predictions_column"])
    def test_missing_manifest(self, name, field, message, two_runs, tmp_path, capsys):
        first, _ = two_runs
        copy = tmp_path / "copy"
        copy.mkdir()
        for kept in ("report.csv", "predictions.csv", "manifest.json"):
            (copy / kept).write_bytes((first / kept).read_bytes())
        path = copy / name
        if field is None:
            path.unlink()
        elif name == "manifest.json":
            manifest = json.loads(path.read_text())
            del manifest[field]
            path.write_text(json.dumps(manifest))
        else:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            column = rows[0].index(field)
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(row[:column] + row[column + 1:] for row in rows)
        code = main(["report", "--out", str(tmp_path / "report"),
                     "--set", "run_a=" + str(copy)])
        assert code == 1
        assert capsys.readouterr().err == "error: " + message.format(path) + "\n"

    @pytest.mark.parametrize("name", ["report.csv", "predictions.csv"])
    def test_an_unbalanced_quote_exits_one_naming_the_file(self, name, two_runs, tmp_path,
                                                           capsys):
        copy = tmp_path / "copy"
        copy.mkdir()
        for kept in ("report.csv", "predictions.csv", "manifest.json"):
            (copy / kept).write_bytes((two_runs[0] / kept).read_bytes())
        error = open_a_quote(copy / name)
        code = main(["report", "--out", str(tmp_path / "report"), "--set", "run_a=" + str(copy)])
        assert code == 1
        assert capsys.readouterr()[:] == ("", error)

    @pytest.mark.parametrize("name", ["report.csv", "predictions.csv"])
    def test_a_repeated_row_exits_one_naming_both_lines(self, name, two_runs, tmp_path, capsys):
        # a copy of report.csv's first row rendered its fold twice and counted
        # it twice in the set mean; predictions.csv's last copy won silently
        copy = tmp_path / "copy"
        copy.mkdir()
        for kept in ("report.csv", "predictions.csv", "manifest.json"):
            (copy / kept).write_bytes((two_runs[0] / kept).read_bytes())
        with open(copy / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(copy / name, "a", newline="") as fh:
            csv.writer(fh).writerow(rows[0].values())
        key = f"set {rows[0]['set_id']} fold {rows[0]['fold_id']}"
        if name == "predictions.csv":
            key += f" essay {rows[0]['essay_id']}"
        code = main(["report", "--out", str(tmp_path / "report"), "--set", "run_a=" + str(copy)])
        assert code == 1
        assert capsys.readouterr()[:] == (
            "", f"error: {copy / name}:{len(rows) + 2}: {key} repeats line 2\n")

    @pytest.mark.parametrize("case", ["two_systems", "prediction_without_report_row",
                                      "report_row_without_predictions"])
    def test_files_of_two_runs_exit_one_naming_the_line(self, case, two_runs, tmp_path, capsys):
        # report rendered the last row's system, dropped a prediction whose fold
        # report.csv lacks, and rendered a fold without its predictions
        copy = tmp_path / "copy"
        copy.mkdir()
        for kept in ("report.csv", "predictions.csv", "manifest.json"):
            (copy / kept).write_bytes((two_runs[0] / kept).read_bytes())
        report, predictions = copy / "report.csv", copy / "predictions.csv"
        report_lines = report.read_text(encoding="utf-8").splitlines()
        prediction_lines = predictions.read_text(encoding="utf-8").splitlines()
        set_id, fold_id = report_lines[-1].split(",")[1:3]
        fold_lines = [n for n, line in enumerate(prediction_lines, start=1)
                      if line.split(",")[:2] == [set_id, fold_id]]
        if case == "two_systems":
            report_lines[2] = report_lines[2].replace("self_attention", "only_prompt", 1)
            message = f"{report}:3: system 'only_prompt' differs from line 2's 'self_attention'"
        elif case == "prediction_without_report_row":
            del report_lines[-1]
            message = (f"{predictions}:{fold_lines[0]}: set {set_id} fold {fold_id} has no row "
                       f"in {report}")
        else:
            prediction_lines = [line for n, line in enumerate(prediction_lines, start=1)
                                if n not in fold_lines]
            message = (f"{report}:{len(report_lines)}: set {set_id} fold {fold_id} has no row "
                       f"in {predictions}")
        report.write_text("\n".join(report_lines) + "\n", encoding="utf-8")
        predictions.write_text("\n".join(prediction_lines) + "\n", encoding="utf-8")
        code = main(["report", "--out", str(tmp_path / "report"), "--set", "run_a=" + str(copy)])
        assert code == 1
        assert capsys.readouterr()[:] == ("", f"error: {message}\n")

    def test_manifest_that_is_not_an_object_exits_one_naming_it(self, two_runs, tmp_path,
                                                                capsys):
        copy = tmp_path / "copy"
        copy.mkdir()
        for kept in ("report.csv", "predictions.csv"):
            (copy / kept).write_bytes((two_runs[0] / kept).read_bytes())
        (copy / "manifest.json").write_text(json.dumps([{"seed": 1}]))
        code = main(["report", "--out", str(tmp_path / "report"),
                     "--set", "run_a=" + str(copy)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: {copy / 'manifest.json'}: the top level is not a JSON object\n"

    @pytest.mark.parametrize("name, text, message", [
        ("predictions.csv", "1,0,101,2,2", "{}:3: no squared_error cell"),
        ("report.csv", "self_attention,1,1,0.5", "{}:3: no best_dev_qwk cell"),
        ("predictions.csv", "1,0,x,2,2,0.5",
         "{}:3: invalid literal for int() with base 10: 'x'"),
        ("report.csv", "self_attention,1,1,high,0.5,1,66,0",
         "{}:3: could not convert string to float: 'high'"),
        ("manifest.json", "{seed: 1}", "{}: not JSON (Expecting property name enclosed in "
                                       "double quotes: line 1 column 2 (char 1))"),
        ("manifest.json", '{"seed": "5"}', "{}: the top level: field 'seed' must be int, not str"),
        # json.load kept the last of the two, and the report rendered seed: 2
        ("manifest.json", '{"seed": 1, "seed": 2}', "{}: key 'seed' repeats in one object"),
    ], ids=["short_prediction_row", "short_report_row", "bad_prediction_cell",
            "bad_report_cell", "manifest_not_json", "manifest_seed_not_int",
            "manifest_repeated_key"])
    def test_a_bad_row_or_manifest_exits_one_naming_the_file(self, name, text, message,
                                                             two_runs, tmp_path, capsys):
        # a CSV file's third line, or the whole manifest, reads ``text``
        copy = tmp_path / "copy"
        copy.mkdir()
        for kept in ("report.csv", "predictions.csv", "manifest.json"):
            (copy / kept).write_bytes((two_runs[0] / kept).read_bytes())
        path = copy / name
        lines = [text]
        if name != "manifest.json":
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[2] = text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["report", "--out", str(tmp_path / "report"), "--set", "run_a=" + str(copy)])
        assert code == 1
        assert capsys.readouterr()[:] == ("", "error: " + message.format(path) + "\n")

    def test_compare_two_runs(self, two_runs, tmp_path, capsys):
        first, second = two_runs
        out = tmp_path / "report"
        code = main(["report", "--out", str(out),
                     "--set", "run_a=" + str(first),
                     "--set", "run_b=" + str(second)])
        assert code == 0
        text = (out / "comparison.txt").read_text()
        assert "t=" in text and "p=" in text and "n=10" in text
        assert "squared error" in text

    def test_compare_mismatched_folds_fails(self, two_runs, data_dir, prep_dir,
                                            tmp_path, capsys):
        first, _ = two_runs
        other = tmp_path / "other"
        assert main(run_args(data_dir, prep_dir, other, "self_attention")
                    + ["--seed", "123"]) == 0
        out = tmp_path / "report"
        code = main(["report", "--out", str(out),
                     "--set", "run_a=" + str(first),
                     "--set", "run_b=" + str(other)])
        assert code == 1
        assert "share fold files" in capsys.readouterr().err

    def test_run_directory_round_trips_every_fold_result_field(self, tmp_path):
        results = tuple(FoldResult(
            set_id=set_id, fold_id=fold_id, test_qwk=0.1 + 0.2 * fold_id,
            best_dev_qwk=float("nan") if fold_id else -0.0, best_epoch=fold_id + 3,
            n_train=60 + set_id, n_augmented=fold_id,
            test_predictions={10 * fold_id + k: Prediction(k, 5 - k, (1 / 3, 5e-324)[k])
                              for k in range(2)},
        ) for set_id in (1, 4) for fold_id in range(3))
        _write_report_files(tmp_path, ExperimentReport("essays_gaze", 11, results))
        (tmp_path / "manifest.json").write_text(json.dumps({"seed": 11}))
        loaded = load_run_directory(tmp_path)
        assert (loaded.system, loaded.seed) == ("essays_gaze", 11)
        assert len(loaded.fold_results) == len(results)
        for got, wrote in zip(loaded.fold_results, results):
            for field in fields(FoldResult):  # repr tells every float's bits apart, nan too
                assert repr(getattr(got, field.name)) == repr(getattr(wrote, field.name))

    def test_missing_run_files(self, tmp_path, capsys):
        out = tmp_path / "report"
        code = main(["report", "--out", str(out),
                     "--set", "run_a=" + str(tmp_path / "nothing")])
        assert code == 1
        assert "cannot read run file" in capsys.readouterr().err


class TestFailurePolicy:
    """train, run, ablate and gridsearch treat failed cells alike at any --jobs."""

    COMMANDS = {"train": ["fold=2"], "run": [], "ablate": ["attribute=DT"],
                "gridsearch": ["grid=0.05"]}
    RESULT_FILES = ("checkpoint_final.txt", "report.csv", "ablation.txt", "gridsearch.csv")
    POOL = "gaze_essay_ids=900,901,902,903,904,905"

    def args(self, command, out, jobs, prep_dir, data_dir, *pairs):
        args = [command, "--config", str(data_dir / "base.cfg"), "--out", str(out),
                "--jobs", jobs]
        for pair in ["corpus_cache=" + str(prep_dir / "corpus_cache.json"), "target_sets=1",
                     "gaze_attributes=DT", *pairs, *self.COMMANDS[command]]:
            args += ["--set", pair]
        return args

    def run_both(self, command, pairs, data_dir, prep_dir, tmp_path, capsys):
        """failures.txt of the command at --jobs 1 and 2, checking exit and stderr."""
        listed = []
        for jobs in ("1", "2"):
            out = tmp_path / f"{command}{jobs}"
            assert main(self.args(command, out, jobs, prep_dir, data_dir, *pairs)) == 1
            err = capsys.readouterr().err
            text = (out / "failures.txt").read_text()
            assert err == "".join("failed: " + line for line in text.splitlines(True))
            listed.append((out, text))
        assert listed[0][1] == listed[1][1]
        return [out for out, _ in listed], listed[0][1]

    @staticmethod
    def records(path, source, essay_ids=None):
        """A gaze CSV of ``source``'s rows, those on ``essay_ids`` if given."""
        header, *rows = source.read_text().splitlines(True)
        path.write_text(header + "".join(
            row for row in rows if essay_ids is None or int(row.split(",")[0]) in essay_ids))
        return path

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_every_cell_failing(self, command, data_dir, prep_dir, pool_gaze_dir,
                                tmp_path, capsys):
        # every cell's first update overflows its parameters
        records = pool_gaze_dir / "records_clean.csv"
        if command == "gridsearch":  # a grid search needs gaze on the target set's dev essays
            records = tmp_path / "pool_and_set1.csv"
            records.write_text((pool_gaze_dir / "records_clean.csv").read_text()
                               + (data_dir / "gaze_set1.csv").read_text().split("\n", 1)[1])
        outs, text = self.run_both(
            command, ["records_clean=" + str(records), "system=essays_gaze", self.POOL,
                      "learning_rate=1e200"], data_dir, prep_dir, tmp_path, capsys)
        assert text.count("TrainingDiverged: ") == \
            {"train": 1, "run": 5, "ablate": 10, "gridsearch": 5}[command]
        assert text.count("\n") == text.count("TrainingDiverged: ")
        for out in outs:
            assert not any((out / name).exists() for name in self.RESULT_FILES)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_leakage_in_some_cells(self, command, data_dir, prep_dir, tmp_path, capsys):
        # target-set gaze only on fold 2's dev and test essays: fold 2 would
        # learn gaze from held-out essays alone, so its cells fail
        fold = make_folds(range(100, 110), seed=0)[2]
        records = self.records(tmp_path / "fold2_held_out.csv", data_dir / "gaze_set1.csv",
                               set(fold.dev) | set(fold.test))
        outs, text = self.run_both(
            command, ["records_clean=" + str(records), "system=co_attention_gaze"],
            data_dir, prep_dir, tmp_path, capsys)
        assert text.count("all of them are on essays held out in set 1 fold 2") == \
            {"train": 1, "run": 1, "ablate": 2, "gridsearch": 1}[command]
        assert text.count("\n") == text.count(" fold=2: ValueError: ")
        if command == "run":
            with open(outs[0] / "report.csv", newline="") as fh:
                assert len(list(csv.DictReader(fh))) == 4
            for name in ("report.csv", "predictions.csv"):
                assert (outs[1] / name).read_bytes() == (outs[0] / name).read_bytes()
        else:
            for out in outs:
                assert not any((out / name).exists() for name in self.RESULT_FILES)

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("pool", ["default", "named"])
    def test_leaking_pool_is_rejected_before_any_cell(self, command, pool, data_dir, prep_dir,
                                                      pool_gaze_dir, tmp_path, capsys):
        # the default pool, every essay with gaze, holds all of set 1; a named
        # one holds essay 100, a dev or test essay of two folds
        records = self.records(tmp_path / "pool_and_set1.csv", data_dir / "gaze_set1.csv")
        records.write_text((pool_gaze_dir / "records_clean.csv").read_text()
                           + records.read_text().split("\n", 1)[1])
        pairs = ["records_clean=" + str(records), "system=essays_gaze"]
        if pool == "named":
            pairs.append(self.POOL + ",100")
        for jobs in ("1", "2"):
            out = tmp_path / f"{command}{jobs}"
            assert main(self.args(command, out, jobs, prep_dir, data_dir, *pairs)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: gaze pool essays [100")
            assert "are held out" in captured.err and captured.err.count("\n") == 1
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_gaze_system_without_target_set_gaze_is_rejected_before_any_cell(
            self, command, data_dir, prep_dir, pool_gaze_dir, tmp_path, capsys):
        # the pool's gaze is all on set 3, and co_attention_gaze, which does
        # not augment, learns gaze from set 1's essays alone
        pairs = ["records_clean=" + str(pool_gaze_dir / "records_clean.csv"),
                 "system=co_attention_gaze"]
        for jobs in ("1", "2"):
            out = tmp_path / f"{command}{jobs}"
            assert main(self.args(command, out, jobs, prep_dir, data_dir, *pairs)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: system 'co_attention_gaze' learns gaze from its "
                                    "target sets' essays, but no essay of target sets [1] "
                                    "has a gaze record within its tokens\n")
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_augmenting_gaze_system_without_gaze_within_tokens_is_rejected_before_any_cell(
            self, command, data_dir, prep_dir, pool_gaze_dir, tmp_path, capsys):
        # every pool record sits past its essay's 8 tokens, and set 1 has no
        # gaze, so essays_gaze would train its gaze heads on nothing
        header, *rows = (pool_gaze_dir / "records_clean.csv").read_text().splitlines(True)
        records = tmp_path / "past_the_tokens.csv"
        records.write_text(header + "".join(
            ",".join(fields[:2] + [str(int(fields[2]) + 8)] + fields[3:])
            for fields in (row.split(",") for row in rows)))
        pairs = ["records_clean=" + str(records), "system=essays_gaze", self.POOL]
        for jobs in ("1", "2"):
            out = tmp_path / f"{command}{jobs}"
            assert main(self.args(command, out, jobs, prep_dir, data_dir, *pairs)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: system 'essays_gaze' learns gaze from its gaze "
                                    "pool and target sets' essays, but no pool essay or essay "
                                    "of target sets [1] has a gaze record within its tokens\n")
            assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "resolved.cfg"]

    def test_train_checks_the_pool_on_its_own_fold(self, data_dir, prep_dir, pool_gaze_dir,
                                                   tmp_path, capsys):
        # the pool's set 1 essay is a dev or test essay of folds 0 and 1 only
        essay_id = make_folds(range(100, 110), seed=0)[1].test[0]
        for fold, code in (("2", 0), ("1", 1)):
            out = tmp_path / fold
            args = self.args("train", out, "1", prep_dir, data_dir,
                             "records_clean=" + str(pool_gaze_dir / "records_clean.csv"),
                             "system=extra_essays", f"{self.POOL},{essay_id}")
            assert main(args + ["--set", "fold=" + fold]) == code
            assert (out / "checkpoint_final.txt").exists() == (code == 0)
        assert capsys.readouterr().err == (f"error: gaze pool essays [{essay_id}] are held out "
                                           "in the run's folds\n")


class TestJobs:
    """train, run, ablate and gridsearch give the same output at any --jobs."""

    def command_args(self, command, out, data_dir, prep_dir, pool_gaze_dir, set1_gaze_dir):
        if command == "gridsearch":  # a grid search scores dev gaze, which set 1 has
            extra = ["system=co_attention_gaze", "grid=0.05,0.1",
                     "records_clean=" + str(set1_gaze_dir / "records_clean.csv")]
        else:
            extra = ["system=essays_gaze", "fold=2", "attribute=DT",
                     "records_clean=" + str(pool_gaze_dir / "records_clean.csv")]
        args = [command, "--config", str(data_dir / "base.cfg"), "--out", str(out)]
        for pair in ["corpus_cache=" + str(prep_dir / "corpus_cache.json"), "target_sets=1",
                     "gaze_attributes=DT", "epochs=2", *extra]:
            args += ["--set", pair]
        return args

    @pytest.mark.parametrize("command", ["train", "run", "ablate", "gridsearch"])
    def test_same_output_at_any_jobs(self, command, data_dir, prep_dir, pool_gaze_dir,
                                     set1_gaze_dir, tmp_path, capsys):
        outputs = []
        for jobs in (["--jobs", "1"], ["--jobs", "2"], []):
            out = tmp_path / "".join(jobs or ["default"])
            code = main(self.command_args(command, out, data_dir, prep_dir, pool_gaze_dir,
                                          set1_gaze_dir) + jobs)
            captured = capsys.readouterr()
            files = {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))
                     if path.is_file() and path.name != "manifest.json"}
            outputs.append((code, captured.out, captured.err, files))
        code, stdout, _, files = outputs[0]
        assert code == 0 and "\nepoch=2 " in stdout and Path("resolved.cfg") in files
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    def test_failed_cell_prints_its_epoch_lines_at_any_jobs(
            self, data_dir, prep_dir, pool_gaze_dir, set1_gaze_dir, tmp_path, capsys,
            monkeypatch):
        run_fold = cli.run_fold

        def failing_after_training(config, data, set_id, fold, log=None):
            result = run_fold(config, data, set_id, fold, log)
            if fold.fold_id == 2:
                raise RuntimeError("fails after training")
            return result

        monkeypatch.setattr(cli, "run_fold", failing_after_training)
        outputs = []
        for jobs in ("1", "2"):
            code = main(self.command_args("run", tmp_path / jobs, data_dir, prep_dir,
                                          pool_gaze_dir, set1_gaze_dir) + ["--jobs", jobs])
            assert code == 1
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == ("failed: system=essays_gaze set=1 fold=2: "
                                  "RuntimeError: fails after training\n")
        lines = outputs[0].out.splitlines()
        start = lines.index("system=essays_gaze set=1 fold=2")
        assert [line.split()[0] for line in lines[start + 1:start + 4]] == [
            "epoch=1", "epoch=2", "system=essays_gaze"]

    def test_diverged_cell_prints_its_epoch_line_at_any_jobs(
            self, data_dir, prep_dir, pool_gaze_dir, set1_gaze_dir, tmp_path, capsys,
            monkeypatch):
        train = experiments.train

        def diverging_in_fold_1(model, train_examples, dev_examples, config, sets, log=None):
            if config.seed % 1000 != 1:  # a cell's seed ends in its fold id
                return train(model, train_examples, dev_examples, config, sets, log)
            log("epoch=1 score_mse=inf")
            raise TrainingDiverged(1, 0, {"w": float("inf")})

        # the pool forks after this, so its workers run the patched train too
        monkeypatch.setattr(experiments, "train", diverging_in_fold_1)
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            code = main(self.command_args("run", out, data_dir, prep_dir,
                                          pool_gaze_dir, set1_gaze_dir) + ["--jobs", jobs])
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err, (out / "failures.txt").read_text()))
        assert outputs[1] == outputs[0]
        code, stdout, stderr, failures = outputs[0]
        assert code == 1 and stderr == "failed: " + failures
        assert failures == ("system=essays_gaze set=1 fold=1: TrainingDiverged: "
                            f"{TrainingDiverged(1, 0, {'w': float('inf')})}\n")
        lines = stdout.splitlines()
        start = lines.index("system=essays_gaze set=1 fold=1")
        assert lines[start + 1:start + 3] == ["epoch=1 score_mse=inf",
                                              "system=essays_gaze set=1 fold=2"]

    def test_diverging_run_prints_the_same_stderr_at_any_jobs(
            self, data_dir, prep_dir, pool_gaze_dir, set1_gaze_dir, tmp_path):
        # with numpy's warnings shown, as from the console script, a warning
        # would print once per process that runs a diverging cell
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            args = self.command_args("run", out, data_dir, prep_dir, pool_gaze_dir,
                                     set1_gaze_dir) + ["--set", "learning_rate=1e200",
                                                       "--jobs", jobs]
            done = subprocess.run([sys.executable, "-W", "default", "-m", "gazescore.cli", *args],
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
            outputs.append((done.returncode, done.stdout, done.stderr,
                            (out / "failures.txt").read_text()))
        assert outputs[1] == outputs[0]
        code, _, stderr, failures = outputs[0]
        assert code == 1 and stderr == "".join("failed: " + line
                                               for line in failures.splitlines(True))
        assert failures.count("TrainingDiverged: ") == 5

    def test_one_cell_makes_no_pool(self, data_dir, prep_dir, pool_gaze_dir, set1_gaze_dir,
                                    tmp_path, monkeypatch):
        def no_pool(**kwargs):
            raise AssertionError("a pool for one cell")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        assert main(self.command_args("train", tmp_path / "train", data_dir, prep_dir,
                                      pool_gaze_dir, set1_gaze_dir) + ["--jobs", "2"]) == 0


class TestExitCodes:
    @pytest.mark.parametrize("command, pair, kind, value", [
        ("run", "epochs=abc", "an integer", "abc"),
        ("run", "dropout=x", "a number", "x"),
        ("run", "gaze_weight_DT=x", "a number", "x"),
        ("train", "fold=x", "an integer", "x"),
        ("run", "target_sets=1,x", "an integer", "x"),
        ("gridsearch", "grid=0.1,abc", "a number", "abc"),
    ], ids=["epochs", "dropout", "gaze_weight", "fold", "target_sets", "grid"])
    def test_bad_option_value_names_option_and_value(self, command, pair, kind, value,
                                                     data_dir, prep_dir, tmp_path, capsys):
        args = run_args(data_dir, prep_dir, tmp_path / "out", "co_attention_gaze", pair)
        args[0] = command
        assert main(args) == 1
        key = pair.partition("=")[0]
        assert capsys.readouterr().err == \
            f"error: option '{key}' must be {kind}, got '{value}'\n"

    def test_bad_jobs_value(self, data_dir, tmp_path, capsys):
        code = main(["preprocess", "--out", str(tmp_path / "o"), "--jobs", "0",
                     "--set", "essays=x", "--set", "set_metadata=y"])
        assert code == 2


# ------------------------------------------------------------- fuzzing

# what a changed or extra cell reads: NaN, infinities, an overflowing float,
# JSON literals and text no numeric parser takes
FUZZ_CELLS = [b"", b" ", b"x", b"-1", b"0", b"1.5", b"nan", b"NaN", b"inf", b"-inf",
              b"Infinity", b"1e400", b"yes", b"null", b'"x"']

FUZZ_BYTES = {"lone quote": b'"', "NUL byte": b"\x00", "byte that is not UTF-8": b"\xff"}

FUZZ_MUTATIONS = ["changed cell", "dropped cell", "extra cell", "renamed header",
                  "duplicated line", "truncated line", *FUZZ_BYTES, "byte-order mark"]


def mutate(data, text, separator, header):
    """``text``, the bytes of a file of lines of ``separator``-split cells
    (its first line a header when ``header``), with one to three mutations
    ``data`` draws. A changed cell keeps the comma that ends a JSON value; a
    renamed header cell, or with no header a line's first cell (its key),
    gains a letter before any closing quote."""
    lines = text.split(b"\n")
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(FUZZ_MUTATIONS))
        i = 0 if kind == "renamed header" and header else data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if kind == "duplicated line":
            lines.insert(i, line)
        elif kind == "truncated line":  # the file ends inside the line
            lines[i:] = [line[:data.draw(st.integers(0, len(line)))]]
        elif kind in FUZZ_BYTES:
            at = data.draw(st.integers(0, len(line)))
            lines[i] = line[:at] + FUZZ_BYTES[kind] + line[at:]
        elif kind == "byte-order mark":
            lines[0] = codecs.BOM_UTF8 + lines[0]
        else:  # a mutation of one cell
            cells = line.split(separator)
            k = 0 if kind == "renamed header" and not header else data.draw(
                st.integers(0, len(cells) - 1))
            if kind == "changed cell":
                cells[k] = data.draw(st.sampled_from(FUZZ_CELLS)) + b"," * cells[k].endswith(b",")
            elif kind == "dropped cell":
                del cells[k]
            elif kind == "extra cell":
                cells.insert(k, data.draw(st.sampled_from(FUZZ_CELLS)))
            else:
                name = cells[k].rstrip(b'" ')
                cells[k] = name + b"x" + cells[k][len(name):]
            lines[i] = separator.join(cells)
    return b"\n".join(lines)


# errors about an option a config file gives, which name the option or its
# input and not the file: one the file leaves out, and an input path it gives
OPTION_ERRORS = ("error: missing required option ", "error: cannot read input file: ")


class TestInputFuzzer:
    """A mutated input file leaves a command exiting 0, or 1 with one error line naming it;
    a mutated fold file loads, or raises a ValueError naming it."""

    @pytest.mark.parametrize("target", ["reader_metadata", "report.csv", "predictions.csv",
                                        "manifest.json", "config", "set_metadata", "folds"])
    @given(data=st.data())
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_a_mutated_input_exits_zero_or_one_naming_it(self, target, data, data_dir, prep_dir,
                                                         two_runs, tmp_path_factory):
        work = tmp_path_factory.getbasetemp() / "fuzz"
        (work / "run").mkdir(parents=True, exist_ok=True)
        out = ["--out", str(work / "out"), "--force"]
        if target == "reader_metadata":
            source, path = data_dir / "readers.csv", work / "readers.csv"
            args = ["bin-gaze", *out, "--set", "gaze_csv=" + str(data_dir / "gaze_pool.csv"),
                    "--set", "corpus_cache=" + str(prep_dir / "corpus_cache.json"),
                    "--set", f"reader_metadata={path}"]
        elif target == "config":
            source, path = data_dir / "base.cfg", work / "run.cfg"
            args = ["preprocess", "--config", str(path), *out, "--dry-run"]
        elif target == "set_metadata":
            source, path = data_dir / "sets.cfg", work / "sets.cfg"
            (work / "article.txt").write_bytes((data_dir / "article.txt").read_bytes())
            args = ["preprocess", *out, "--set", "essays=" + str(data_dir / "essays.tsv"),
                    "--set", f"set_metadata={path}"]
        elif target == "folds":  # loaded as train, run, ablate and gridsearch load it
            source, path = two_runs[0] / "folds" / "set_1.txt", work / "set_1.txt"
        else:
            for name in ("report.csv", "predictions.csv", "manifest.json"):
                (work / "run" / name).write_bytes((two_runs[0] / name).read_bytes())
            source, path = two_runs[0] / target, work / "run" / target
            args = ["report", *out, "--set", "run_a=" + str(work / "run")]
        separator = {"config": b"=", "manifest.json": b": ",
                     "set_metadata": b" "}.get(target, b",")
        path.write_bytes(mutate(data, source.read_bytes(), separator,
                                separator == b"," and target != "folds"))
        if target == "folds":
            try:
                experiments.load_folds(path)
            except ValueError as error:
                assert str(path) in str(error), error
            return

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
        errors = stderr.getvalue().splitlines()
        if code == 0:
            assert not any(line.startswith("error:") for line in errors)
            return
        assert code == 1 and len(errors) == 1 and errors[0].startswith("error: "), errors
        assert str(path) in errors[0] or (target == "config"
                                          and errors[0].startswith(OPTION_ERRORS)), errors
