"""Tests for the ``res`` command-line front end."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workloads import FIGURE1_OVERFLOW, HW_CANARY, TAINTED_OVERFLOW
from repro.workloads.hwfaults import flipped_written_word


@pytest.fixture(scope="module")
def figure1_core(tmp_path_factory):
    path = tmp_path_factory.mktemp("cores") / "figure1.json"
    path.write_text(FIGURE1_OVERFLOW.trigger().to_json())
    return str(path)


@pytest.fixture(scope="module")
def tainted_core(tmp_path_factory):
    path = tmp_path_factory.mktemp("cores") / "tainted.json"
    path.write_text(TAINTED_OVERFLOW.trigger().to_json())
    return str(path)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_analyze_requires_program(figure1_core):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze", figure1_core])


def test_parser_workload_and_source_exclusive(figure1_core):
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["analyze", figure1_core,
             "--workload", "a", "--source", "b"])


# ---------------------------------------------------------------------------
# workloads / crash
# ---------------------------------------------------------------------------

def test_workloads_lists_catalog(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "figure1_overflow" in out
    assert "race_flag" in out


def test_crash_writes_coredump(tmp_path, capsys):
    out_path = tmp_path / "core.json"
    code = main(["crash", "figure1_overflow", "-o", str(out_path)])
    assert code == 0
    assert out_path.exists()
    assert "out-of-bounds" in capsys.readouterr().out


def test_crash_unknown_workload_fails(tmp_path, capsys):
    code = main(["crash", "no_such_workload",
                 "-o", str(tmp_path / "x.json")])
    assert code == 64
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_finds_overflow_cause(figure1_core, capsys):
    code = main(["analyze", figure1_core, "--workload", "figure1_overflow"])
    assert code == 0
    out = capsys.readouterr().out
    assert "root cause:" in out
    assert "buffer-overflow" in out or "assert" in out


def test_analyze_missing_coredump(capsys):
    code = main(["analyze", "/nonexistent/core.json",
                 "--workload", "figure1_overflow"])
    assert code == 64
    assert "not found" in capsys.readouterr().err


def test_analyze_with_source_file(figure1_core, tmp_path, capsys):
    src = tmp_path / "figure1_overflow.mc"
    src.write_text(FIGURE1_OVERFLOW.source)
    code = main(["analyze", figure1_core, "--source", str(src)])
    assert code == 0


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_verifies(figure1_core, capsys):
    code = main(["replay", figure1_core, "--workload", "figure1_overflow",
                 "--max-suffixes", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "replay verified: True" in out
    assert "schedule:" in out


# ---------------------------------------------------------------------------
# hwcheck
# ---------------------------------------------------------------------------

def test_hwcheck_clean_dump_is_software(tmp_path, capsys):
    dump = HW_CANARY.trigger()
    path = tmp_path / "clean.json"
    path.write_text(dump.to_json())
    code = main(["hwcheck", str(path), "--workload", "hw_canary"])
    assert code == 0
    assert "software" in capsys.readouterr().out


def test_hwcheck_flipped_dump_is_hardware(tmp_path, capsys):
    scenario = flipped_written_word()
    path = tmp_path / "flipped.json"
    path.write_text(scenario.coredump.to_json())
    code = main(["hwcheck", str(path), "--workload", "hw_canary"])
    assert code == 2
    assert "hardware" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exploit
# ---------------------------------------------------------------------------

def test_exploit_tainted_overflow(tainted_core, capsys):
    code = main(["exploit", tainted_core, "--workload", "tainted_overflow"])
    assert code == 0
    out = capsys.readouterr().out
    assert "res verdict:" in out
    assert "exploitable" in out


# ---------------------------------------------------------------------------
# debug
# ---------------------------------------------------------------------------

def test_debug_scripted_session(figure1_core, capsys):
    code = main([
        "debug", figure1_core, "--workload", "figure1_overflow",
        "--script", "run; print x; print y; backtrace; focus",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "x = 1" in out
    assert "y = 10" in out
    assert "#0" in out


def test_debug_writes_query(figure1_core, capsys):
    code = main([
        "debug", figure1_core, "--workload", "figure1_overflow",
        "--script", "writes y",
    ])
    assert code == 0
    assert "wrote" in capsys.readouterr().out


def test_debug_unknown_command(figure1_core, capsys):
    code = main([
        "debug", figure1_core, "--workload", "figure1_overflow",
        "--script", "frobnicate",
    ])
    assert code == 64


def test_debug_rstep_round_trip(figure1_core, capsys):
    code = main([
        "debug", figure1_core, "--workload", "figure1_overflow",
        "--script", "step 4; rstep 2; step 1; run",
    ])
    assert code == 0
    assert "failure at" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Suffix artifacts through the CLI
# ---------------------------------------------------------------------------

def test_replay_save_and_debug_artifact(figure1_core, tmp_path, capsys):
    artifact = tmp_path / "suffix.json"
    code = main(["replay", figure1_core, "--workload", "figure1_overflow",
                 "--max-suffixes", "8", "--save", str(artifact)])
    assert code == 0
    assert artifact.exists()
    assert "artifact written" in capsys.readouterr().out

    code = main(["debug", figure1_core, "--workload", "figure1_overflow",
                 "--artifact", str(artifact),
                 "--script", "run; print y"])
    assert code == 0
    assert "y = 10" in capsys.readouterr().out


def test_debug_artifact_for_wrong_module_fails(tmp_path, capsys):
    artifact = tmp_path / "suffix.json"
    core = tmp_path / "core.json"
    core.write_text(FIGURE1_OVERFLOW.trigger().to_json())
    assert main(["replay", str(core), "--workload", "figure1_overflow",
                 "--max-suffixes", "8", "--save", str(artifact)]) == 0
    capsys.readouterr()
    code = main(["debug", str(core), "--workload", "race_flag",
                 "--artifact", str(artifact), "--script", "run"])
    assert code == 64
    assert "module" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# triage / watch
# ---------------------------------------------------------------------------

def test_triage_command_compares_wer_and_res(capsys):
    code = main(["triage", "--reports", "10", "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "WER (call stacks)" in out
    assert "RES (root causes)" in out
    # RES buckets by root cause: exactly the two seeded causes
    res_line = next(l for l in out.splitlines() if l.startswith("RES"))
    assert "buckets=  2" in res_line


def test_debug_watch_command(figure1_core, capsys):
    code = main([
        "debug", figure1_core, "--workload", "figure1_overflow",
        "--script", "watch y; continue; print y",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "watchpoint on y" in out
    assert "-> 10" in out


# ---------------------------------------------------------------------------
# Loader error paths
# ---------------------------------------------------------------------------

def test_analyze_missing_source_file(figure1_core, capsys):
    code = main(["analyze", figure1_core,
                 "--source", "/nonexistent/prog.mc"])
    assert code == 64
    assert "source file not found" in capsys.readouterr().err


def test_analyze_malformed_coredump(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"module\": \"x\"}")
    code = main(["analyze", str(bad), "--workload", "figure1_overflow"])
    assert code == 64
    assert "malformed coredump" in capsys.readouterr().err


def test_analyze_coredump_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    code = main(["analyze", str(bad), "--workload", "figure1_overflow"])
    assert code == 64
    assert "malformed coredump" in capsys.readouterr().err


def test_analyze_coredump_for_wrong_module(figure1_core, capsys):
    code = main(["analyze", figure1_core, "--workload", "race_flag"])
    assert code == 64
    err = capsys.readouterr().err
    assert "figure1_overflow" in err and "race_flag" in err


def test_analyze_source_with_compile_error(figure1_core, tmp_path, capsys):
    src = tmp_path / "broken.mc"
    src.write_text("func main() { int x = ; }")
    code = main(["analyze", figure1_core, "--source", str(src)])
    assert code == 64
    assert "error" in capsys.readouterr().err


def test_unknown_workload_in_analyze(figure1_core, capsys):
    code = main(["analyze", figure1_core, "--workload", "no_such"])
    assert code == 64
    assert "unknown workload" in capsys.readouterr().err


def test_debug_missing_artifact_file(figure1_core, capsys):
    code = main(["debug", figure1_core, "--workload", "figure1_overflow",
                 "--artifact", "/nonexistent/suffix.json",
                 "--script", "run"])
    assert code == 64


def test_hwcheck_wrong_trap_kind_coredump(tmp_path, capsys):
    """A coredump whose trap kind does not match what the workload
    would produce still analyzes (RES is trap-agnostic), but against
    the wrong module name it is rejected."""
    dump = TAINTED_OVERFLOW.trigger()
    path = tmp_path / "mismatch.json"
    path.write_text(dump.to_json())
    code = main(["hwcheck", str(path), "--workload", "hw_canary"])
    assert code == 64
    assert "tainted_overflow" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Hardened error paths: corpus/store/cache inputs fail with one-line
# diagnostics (exit != 0), never tracebacks
# ---------------------------------------------------------------------------

def test_triage_missing_corpus_dir(capsys):
    code = main(["triage", "--corpus-dir", "/nonexistent/corpus"])
    assert code == 64
    assert "corpus directory not found" in capsys.readouterr().err


def test_triage_corpus_dir_without_manifest(tmp_path, capsys):
    code = main(["triage", "--corpus-dir", str(tmp_path)])
    assert code == 64
    assert "no corpus manifest" in capsys.readouterr().err


def test_triage_corpus_with_malformed_coredump(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "cores").mkdir(parents=True)
    (corpus_dir / "programs").mkdir()
    (corpus_dir / "programs" / "p.minic").write_text(
        FIGURE1_OVERFLOW.source)
    (corpus_dir / "cores" / "bad.json").write_text("this is not json")
    (corpus_dir / "manifest.json").write_text(json.dumps({
        "programs": {"p": {"name": "p", "file": "programs/p.minic"}},
        "entries": [{"report_id": "bad", "program": "p",
                     "true_cause": None, "core": "cores/bad.json"}],
    }))
    code = main(["triage", "--corpus-dir", str(corpus_dir)])
    assert code == 64
    assert "malformed coredump" in capsys.readouterr().err


def test_triage_corpus_with_missing_coredump_file(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "programs").mkdir(parents=True)
    (corpus_dir / "programs" / "p.minic").write_text(
        FIGURE1_OVERFLOW.source)
    (corpus_dir / "manifest.json").write_text(json.dumps({
        "programs": {"p": {"name": "p", "file": "programs/p.minic"}},
        "entries": [{"report_id": "gone", "program": "p",
                     "true_cause": None, "core": "cores/gone.json"}],
    }))
    code = main(["triage", "--corpus-dir", str(corpus_dir)])
    assert code == 64
    assert "missing coredump" in capsys.readouterr().err


def test_triage_corpus_repeating_a_report_id(tmp_path, capsys):
    """A batch corpus files each report once: a manifest naming one
    report id twice fails with one line before any search runs."""
    corpus_dir = tmp_path / "corpus"
    (corpus_dir / "cores").mkdir(parents=True)
    (corpus_dir / "programs").mkdir()
    (corpus_dir / "programs" / "p.minic").write_text(
        FIGURE1_OVERFLOW.source)
    (corpus_dir / "cores" / "c.json").write_text(
        FIGURE1_OVERFLOW.trigger().to_json())
    entry = {"report_id": "core-1", "program": "p", "true_cause": None,
             "core": "cores/c.json"}
    (corpus_dir / "manifest.json").write_text(json.dumps({
        "programs": {"p": {"name": "p", "file": "programs/p.minic"}},
        "entries": [entry, entry],
    }))
    code = main(["triage", "--corpus-dir", str(corpus_dir)])
    assert code == 64
    err = capsys.readouterr().err
    assert err == "res: error: corpus repeats report id 'core-1'\n"


def test_triage_corrupt_manifest_json(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "manifest.json").write_text("{truncated")
    code = main(["triage", "--corpus-dir", str(corpus_dir)])
    assert code == 64
    assert "corrupt corpus manifest" in capsys.readouterr().err


def test_triage_unwritable_store(tmp_path, capsys):
    # A path whose parent is a regular file is unwritable even as root
    # (chmod tricks don't bite for uid 0, this always does).
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["triage", "--reports", "2",
                 "--store", str(blocker / "store.json")])
    assert code == 64
    err = capsys.readouterr().err
    assert err.startswith("res: error:") and "store" in err
    assert len(err.strip().splitlines()) == 1  # one-line diagnostic


def test_triage_unwritable_cache_dir(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["triage", "--reports", "2",
                 "--cache-dir", str(blocker / "cache")])
    assert code == 64
    err = capsys.readouterr().err
    assert "cache" in err
    assert len(err.strip().splitlines()) == 1


def test_serve_worker_mode_accepts_only_process():
    """Worker processes are the only mode; the flag still parses so
    existing ``--worker-mode process`` invocations keep working."""
    args = build_parser().parse_args(["serve", "--worker-mode", "process"])
    assert args.worker_mode == "process"
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["serve", "--worker-mode", "thread"])
    assert excinfo.value.code == 2


def test_serve_unwritable_spool(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main(["serve", "--port", "0",
                 "--spool", str(blocker / "spool")])
    assert code == 64
    assert "spool" in capsys.readouterr().err


def test_submit_missing_coredump_file(capsys):
    code = main(["submit", "/nonexistent/core.json",
                 "--workload", "figure1_overflow",
                 "--url", "http://127.0.0.1:1"])
    assert code == 64
    assert "not found" in capsys.readouterr().err


def test_submit_unreachable_daemon(figure1_core, capsys):
    code = main(["submit", figure1_core,
                 "--workload", "figure1_overflow",
                 "--url", "http://127.0.0.1:1"])
    assert code == 64
    assert "cannot reach intake daemon" in capsys.readouterr().err


def test_status_unreachable_daemon(capsys):
    code = main(["status", "--url", "http://127.0.0.1:1"])
    assert code == 64
    assert "cannot reach intake daemon" in capsys.readouterr().err


def test_watch_missing_directory(capsys):
    code = main(["watch", "/nonexistent/intake", "--once",
                 "--url", "http://127.0.0.1:1"])
    assert code == 64
    assert "watch directory not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def test_fuzz_small_campaign_through_cli(tmp_path, capsys):
    code = main(["fuzz", "--seed", "0", "--count", "4",
                 "--artifacts", str(tmp_path / "artifacts")])
    assert code == 0
    out = capsys.readouterr().out
    assert "campaign: 4 programs" in out
    assert "divergences: none" in out
    assert not (tmp_path / "artifacts").exists()


def test_fuzz_forced_divergence_exit_code_and_artifacts(tmp_path, capsys):
    code = main(["fuzz", "--seed", "0", "--count", "2",
                 "--force-divergence", "--hw-fault-prob", "0",
                 "--alu-fault-prob", "0",
                 "--artifacts", str(tmp_path / "artifacts")])
    assert code == 1
    out = capsys.readouterr().out
    assert "incremental-vs-naive" in out
    assert list((tmp_path / "artifacts").glob("div-*.json"))


# ---------------------------------------------------------------------------
# disasm
# ---------------------------------------------------------------------------

def test_disasm_workload_prints_bytecode(capsys):
    assert main(["disasm", "--workload", "figure1_overflow"]) == 0
    out = capsys.readouterr().out
    assert "bytecode for module 'figure1_overflow'" in out
    assert "func main" in out
    # slot-register syntax with source mapping
    assert "s0(" in out and "; main:" in out


def test_disasm_source_file(tmp_path, capsys):
    src = tmp_path / "tiny.mc"
    src.write_text("func main() { output(1 + 2); return 0; }\n")
    assert main(["disasm", "--source", str(src)]) == 0
    out = capsys.readouterr().out
    assert "bytecode for module 'tiny'" in out
    assert "output" in out


def test_disasm_missing_source_fails(capsys):
    assert main(["disasm", "--source", "/nonexistent/p.mc"]) == 64
    assert "error" in capsys.readouterr().err
