"""CLI tests (argument parsing + each command end-to-end)."""

import os

import pytest

from repro.cli import main

CG = """\
n = 32;
rand('seed', 1);
A = rand(n, n) + n * eye(n);
b = A * ones(n, 1);
x = A \\ b;
fprintf('max err %.2e\\n', max(abs(x - 1)));
"""


@pytest.fixture
def script(tmp_path):
    path = tmp_path / "demo.m"
    path.write_text(CG)
    return str(path)


class TestCompile:
    def test_emit_c_default(self, script, capsys):
        assert main(["compile", script]) == 0
        out = capsys.readouterr().out
        assert "ML_init_runtime" in out

    def test_emit_python(self, script, capsys):
        assert main(["compile", script, "--emit", "python"]) == 0
        assert "def main(rt):" in capsys.readouterr().out

    def test_emit_ir(self, script, capsys):
        assert main(["compile", script, "--emit", "ir"]) == 0
        assert "program demo" in capsys.readouterr().out

    def test_emit_matlab_roundtrips(self, script, capsys):
        assert main(["compile", script, "--emit", "matlab"]) == 0
        echoed = capsys.readouterr().out
        assert "rand('seed', 1);" in echoed

    def test_output_file(self, script, tmp_path, capsys):
        target = str(tmp_path / "out.c")
        assert main(["compile", script, "-o", target]) == 0
        with open(target) as fh:
            assert "ML_init_runtime" in fh.read()
        assert "wrote" in capsys.readouterr().out

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.m"
        bad.write_text("x = [1, 2\n")
        assert main(["compile", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/x.m"]) == 1


class TestRun:
    def test_run_parallel(self, script, capsys):
        assert main(["run", script, "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "max err" in out

    def test_run_with_time(self, script, capsys):
        assert main(["run", script, "-n", "2", "--time",
                     "--machine", "cluster"]) == 0
        err = capsys.readouterr().err
        assert "SPARCserver-20 cluster" in err and "ms modeled" in err

    def test_run_time_reports_fused_fallback(self, tmp_path, capsys):
        # uneven blocks make toc rank-varying; scaling a distributed
        # vector by it has no fused path (line 6)
        path = tmp_path / "diverge.m"
        path.write_text("v = ones(5, 1);\ntic;\ns = sum(v);\nt = toc;\n"
                        "\nv = v * t;\ndisp(sum(v) > 0);\n")
        assert main(["run", str(path), "-n", "3", "--backend", "fused",
                     "--time"]) == 0
        err = capsys.readouterr().err
        assert ("[backend] fused → lockstep: rank-varying scalar mixed "
                "into distributed arithmetic (line 6)") in err

    def test_run_time_healthy_program_has_no_backend_line(self, script,
                                                          capsys):
        assert main(["run", script, "-n", "4", "--time"]) == 0
        assert "[backend]" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags,env", [
        (["--trace-summary"], None),
        ([], "summary"),
        (["--trace", "{out}"], None),
        ([], "{out}"),
        (["--trace", "{out}", "--trace-summary"], None),
    ])
    def test_trace_outputs_from_flags_or_env(self, script, tmp_path,
                                             capsys, monkeypatch,
                                             flags, env):
        out = str(tmp_path / "t.json")
        if env is not None:
            monkeypatch.setenv("REPRO_TRACE", env.format(out=out))
        else:
            monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert main(["run", script, "-n", "2"]
                    + [f.format(out=out) for f in flags]) == 0
        err = capsys.readouterr().err
        wants_file = "{out}" in flags or env == "{out}"
        wants_summary = "--trace-summary" in flags or env == "summary"
        assert os.path.exists(out) == wants_file
        assert ("[trace] wrote" in err) == wants_file
        assert ("time(ms)" in err) == wants_summary

    def test_run_cyclic(self, script, capsys):
        assert main(["run", script, "--scheme", "cyclic"]) == 0
        assert "max err" in capsys.readouterr().out

    def test_run_with_mfile_path(self, tmp_path, capsys):
        (tmp_path / "double_it.m").write_text(
            "function y = double_it(x)\ny = 2 * x;\n")
        s = tmp_path / "main.m"
        s.write_text("fprintf('%d\\n', double_it(21));\n")
        assert main(["run", str(s)]) == 0
        assert capsys.readouterr().out == "42\n"


class TestInterp:
    def test_interp_matches_run(self, script, capsys):
        assert main(["interp", script]) == 0
        interp_out = capsys.readouterr().out
        assert main(["run", script]) == 0
        assert capsys.readouterr().out == interp_out

    def test_matcom_flag(self, script, capsys):
        assert main(["interp", script, "--matcom", "--time"]) == 0
        assert "[matcom]" in capsys.readouterr().err


class TestBench:
    def test_table1(self, capsys):
        assert main(["bench", "--figure", "table1"]) == 0
        assert "FALCON" in capsys.readouterr().out

    def test_figure2_small(self, capsys):
        assert main(["bench", "--figure", "2", "--scale", "small"]) == 0
        assert "MATCOM" in capsys.readouterr().out


class TestProjectEmit:
    def test_project_directory(self, script, tmp_path, capsys):
        outdir = str(tmp_path / "proj")
        assert main(["compile", script, "--emit", "project",
                     "-o", outdir]) == 0
        import os

        files = set(os.listdir(outdir))
        assert files == {"main.c", "otter_runtime.h", "Makefile"}
        with open(os.path.join(outdir, "Makefile")) as fh:
            mk = fh.read()
        assert "mpicc" in mk and "mpirun" in mk
        with open(os.path.join(outdir, "main.c")) as fh:
            assert '#include "otter_runtime.h"' in fh.read()


class TestJsonBench:
    def test_table1_json(self, capsys):
        import json

        assert main(["bench", "--figure", "table1",
                     "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 8
        assert any(r["name"] == "Otter" for r in rows)

    def test_figure2_json(self, capsys):
        import json

        assert main(["bench", "--figure", "2", "--scale", "small",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["figure"] == 2
        assert set(payload["relative"]) == {"cg", "ocean", "nbody",
                                            "closure"}


class TestPaperScripts:
    def test_run_shipped_cg_script(self, capsys):
        import os

        import repro.bench as bench_pkg

        script = os.path.join(os.path.dirname(bench_pkg.__file__),
                              "mscripts", "closure.m")
        assert main(["run", script, "-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "reachable" in out
