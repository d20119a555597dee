"""CLI commands run end to end."""

import pytest

from repro.cli import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info", "--workload", "hypercube", "--n", "40"]) == 0
        out = capsys.readouterr().out
        assert "aspect ratio" in out
        assert "doubling dim" in out

    def test_info_expline(self, capsys):
        assert main(["info", "--workload", "expline", "--n", "32"]) == 0
        assert "log2 = 31" in capsys.readouterr().out

    def test_triangulate(self, capsys):
        code = main(
            ["triangulate", "--workload", "uline", "--n", "32", "--pair", "0", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "order" in out and "estimate" in out

    def test_labels(self, capsys):
        code = main(["labels", "--workload", "uline", "--n", "32"])
        assert code == 0
        assert "max label bits" in capsys.readouterr().out

    def test_route(self, capsys):
        code = main(["route", "--scheme", "thm2.1", "--n", "48", "--packets", "60"])
        assert code == 0
        out = capsys.readouterr().out
        assert "delivery      100.0%" in out

    def test_smallworld(self, capsys):
        code = main(
            ["smallworld", "--model", "5.2a", "--workload", "uline", "--n", "48",
             "--queries", "60"]
        )
        assert code == 0
        assert "completion" in capsys.readouterr().out

    def test_smallworld_55(self, capsys):
        code = main(["smallworld", "--model", "5.5", "--n", "49", "--queries", "40"])
        assert code == 0

    def test_list_enumerates_registries(self, capsys):
        from repro import api

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert len(api.workload_names()) >= 5
        assert len(api.scheme_names()) >= 8
        for name in api.workload_names():
            assert name in out
        for name in api.scheme_names():
            assert name in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestServeCommands:
    def test_save_then_load(self, tmp_path, capsys):
        path = tmp_path / "tri.repro"
        code = main(["save", str(path), "--scheme", "triangulation",
                     "--workload", "uline", "--n", "32", "--delta", "0.3"])
        assert code == 0
        assert path.is_file()
        assert "saved triangulation" in capsys.readouterr().out

        code = main(["load", str(path), "--pair", "0", "20"])
        assert code == 0
        out = capsys.readouterr().out
        assert "sha256:" in out
        assert "triangulation" in out
        assert "estimate(0,20)" in out

    def test_save_routing_scheme(self, tmp_path, capsys):
        path = tmp_path / "router.repro"
        code = main(["save", str(path), "--scheme", "route-thm2.1",
                     "--workload", "knn-graph", "--n", "32", "--k", "4",
                     "--delta", "0.3"])
        assert code == 0
        code = main(["load", str(path), "--verify"])
        assert code == 0
        assert "route-thm2.1" in capsys.readouterr().out
        code = main(["load", str(path), "--pair", "0", "5"])
        assert code == 0
        assert "route(0,5)  reached=True hops=" in capsys.readouterr().out

    def test_load_rejects_non_container(self, tmp_path):
        path = tmp_path / "garbage.repro"
        path.write_bytes(b"not a container at all")
        with pytest.raises(Exception, match="magic"):
            main(["load", str(path)])

    def test_results_diff_missing_suite_warns(self, tmp_path, capsys):
        code = main(["results", "--out", str(tmp_path),
                     "--diff", "missing-a", "missing-b"])
        assert code == 2
        err = capsys.readouterr().err
        assert "warning" in err
        assert "missing-a" in err

    def test_cache_reports_row_cache_stats(self, capsys):
        from repro import api

        api.clear_cache()
        api.build_workload("knn-graph", n=24, seed=1)
        try:
            assert main(["cache"]) == 0
            out = capsys.readouterr().out
            assert "entries" in out
            assert "row-cache" in out
        finally:
            api.clear_cache()


class TestUpdateCommand:
    def test_triangulation_trace_then_compact(self, capsys):
        code = main(["update", "--scheme", "triangulation", "--workload",
                     "hypercube", "--n", "64", "--events", "8", "--compact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events              8" in out
        assert "dirty_rows         0" in out

    def test_route_thm21_updates_on_a_graph_workload(self, capsys):
        code = main(["update", "--scheme", "route-thm2.1", "--workload",
                     "knn-graph", "--n", "48", "--events", "6", "--compact"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload  knn-graph (n=48)" in out
        assert "ivl_violations      0" in out

    def test_unsupported_pair_is_a_one_line_error(self, capsys):
        # route-thm2.1 on a metric workload routes over a static overlay.
        code = main(["update", "--scheme", "route-thm2.1", "--workload",
                     "hypercube", "--n", "32", "--events", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "graph workload" in err

    def test_ivl_counters_print_at_zero_checks(self, capsys):
        # every triangulation update merges, so nothing is ever checked:
        # the count shows that rather than hiding it
        code = main(["update", "--scheme", "triangulation", "--workload",
                     "hypercube", "--n", "64", "--events", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ivl_checks          0" in out
        assert "ivl_violations      0" in out

    def test_an_ivl_violation_fails_the_command(self, capsys, monkeypatch):
        import numpy as np

        from repro.core.patch import CSRPatch

        original = CSRPatch.filtered_row

        def filtered_row(self, r):
            # serve every dirty ring with an inactive node appended
            keys, payloads = original(self, r)
            gone = np.flatnonzero(~self.membership.active)[:1]
            return np.append(keys, gone).astype(keys.dtype), payloads

        monkeypatch.setattr(CSRPatch, "filtered_row", filtered_row)
        code = main(["update", "--scheme", "route-thm2.1", "--workload",
                     "knn-graph", "--n", "48", "--events", "6"])
        assert code == 1
        captured = capsys.readouterr()
        assert "ivl_violations      0" not in captured.out
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "IVL violation" in captured.err
