"""Integration tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_figure_panel_choices(self):
        args = build_parser().parse_args(["figure", "4d"])
        assert args.panel == "4d"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "5a"])


class TestGenerateAndFit:
    def test_generate_writes_file(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        code = main(
            [
                "generate",
                "--dataset",
                "I",
                "--transactions",
                "200",
                "--items",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote 200 transactions" in capsys.readouterr().out

    def test_fit_reports_and_explains(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        main(
            [
                "generate",
                "--transactions",
                "300",
                "--items",
                "40",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "fit",
                "--data",
                str(out),
                "--min-support",
                "0.02",
                "--explain",
                "2",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "PROF+MOA" in text
        assert "selected rule" in text

    def test_fit_no_moa_label(self, tmp_path, capsys):
        out = tmp_path / "data.jsonl"
        main(
            ["generate", "--transactions", "300", "--items", "40", "--out", str(out)]
        )
        capsys.readouterr()
        assert main(["fit", "--data", str(out), "--no-moa"]) == 0
        assert "PROF-MOA" in capsys.readouterr().out

    def test_missing_file_is_reported_not_raised(self, capsys):
        code = main(["fit", "--data", "/nonexistent/x.jsonl"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["auto", "ooc"])
    def test_malformed_transaction_line_is_reported_with_its_line(
        self, tmp_path, capsys, backend
    ):
        data = tmp_path / "data.jsonl"
        main(["generate", "--transactions", "50", "--items", "20", "--out", str(data)])
        line = {"tid": 50, "sales": [["I0", "P0", "many"]], "target": ["T0", "P0", 1]}
        with data.open("a") as handle:
            handle.write(json.dumps(line) + "\n")
        capsys.readouterr()
        code = main(["fit", "--data", str(data), "--backend", backend])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{data}:52: malformed transaction payload" in err


class TestFitTrace:
    def test_profile_fit_attributes_ingest_index_mask_and_save(
        self, tmp_path, capsys
    ):
        data = tmp_path / "data.jsonl"
        main(["generate", "--transactions", "300", "--items", "40", "--out", str(data)])
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "profile",
                "--trace-out",
                str(trace_path),
                "fit",
                "--data",
                str(data),
                "--backend",
                "dense",
                "--save-model",
                str(tmp_path / "model.json"),
            ]
        )
        assert code == 0
        spans = json.loads(trace_path.read_text())["spans"]
        top = [span["name"] for span in spans]
        assert top[0] == "ingest"
        assert top[-1] == "save"
        mine = next(span for span in spans if span["name"] == "mine")
        assert [child["name"] for child in mine["children"]] == [
            "mine.index_build",
            "mine.mask_matrix",
            "mine.discover",
            "mine.emit",
        ]


class TestExperimentCommands:
    def test_figure_3e_runs_at_tiny_scale(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert main(["figure", "3e"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3e" in out
        assert "profit=" in out

    def test_figure_4e_scale_flag(self, capsys):
        assert main(["figure", "4e", "--scale", "tiny"]) == 0
        assert "dataset II" in capsys.readouterr().out


class TestExportCommand:
    def test_export_writes_csv(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        main(
            ["generate", "--transactions", "300", "--items", "40", "--out", str(data)]
        )
        out = tmp_path / "rules.csv"
        code = main(
            ["export", "--data", str(data), "--min-support", "0.02", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("rank,")
        assert "wrote" in capsys.readouterr().out

    def test_export_recommendations_csv(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        main(
            ["generate", "--transactions", "300", "--items", "40", "--out", str(data)]
        )
        rules = tmp_path / "rules.csv"
        recs = tmp_path / "recs.csv"
        code = main(
            [
                "export",
                "--data",
                str(data),
                "--min-support",
                "0.02",
                "--out",
                str(rules),
                "--recommendations-out",
                str(recs),
            ]
        )
        assert code == 0
        lines = recs.read_text().splitlines()
        assert lines[0].startswith("tid,")
        assert len(lines) == 1 + 300  # header + one row per transaction
        assert "recommendations" in capsys.readouterr().out


class TestCompareCommand:
    def test_compare_prints_table_and_significance(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "I",
                "--scale",
                "tiny",
                "--systems",
                "PROF+MOA",
                "MPI",
                "DT",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PROF+MOA" in out and "MPI" in out
        assert "p=" in out  # the significance line

    def test_compare_unknown_system_fails_cleanly(self, capsys):
        code = main(
            ["compare", "--scale", "tiny", "--systems", "PROF+MOA", "Bogus"]
        )
        assert code == 1
        assert "unknown systems" in capsys.readouterr().err


class TestModelPersistenceViaCli:
    @pytest.fixture
    def saved_model(self, tmp_path, capsys):
        """A dataset file and a model fitted on it via the CLI."""
        data = tmp_path / "data.jsonl"
        main(
            ["generate", "--transactions", "300", "--items", "40", "--out", str(data)]
        )
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "fit",
                    "--data",
                    str(data),
                    "--min-support",
                    "0.02",
                    "--save-model",
                    str(model_path),
                ]
            )
            == 0
        )
        assert "model saved" in capsys.readouterr().out
        return data, model_path

    def test_fit_save_model_round_trip(self, saved_model):
        from repro.data.model_io import load_model

        _, model_path = saved_model
        restored = load_model(model_path)
        assert restored.model_size >= 1

    def test_export_from_saved_model(self, saved_model, tmp_path, capsys):
        _, model_path = saved_model
        capsys.readouterr()
        out = tmp_path / "rules.csv"
        code = main(["export", "--model", str(model_path), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("rank,")
        assert len(text.splitlines()) > 1
        assert "saved model" in capsys.readouterr().out

    def test_export_saved_model_matches_refit_export(
        self, saved_model, tmp_path, capsys
    ):
        data, model_path = saved_model
        fitted_csv = tmp_path / "fitted.csv"
        loaded_csv = tmp_path / "loaded.csv"
        assert (
            main(
                [
                    "export",
                    "--data",
                    str(data),
                    "--min-support",
                    "0.02",
                    "--out",
                    str(fitted_csv),
                ]
            )
            == 0
        )
        assert (
            main(["export", "--model", str(model_path), "--out", str(loaded_csv)])
            == 0
        )
        assert loaded_csv.read_text() == fitted_csv.read_text()

    def test_export_saved_model_serves_recommendations(
        self, saved_model, tmp_path, capsys
    ):
        data, model_path = saved_model
        capsys.readouterr()
        rules = tmp_path / "rules.csv"
        recs = tmp_path / "recs.csv"
        code = main(
            [
                "export",
                "--model",
                str(model_path),
                "--data",
                str(data),
                "--out",
                str(rules),
                "--recommendations-out",
                str(recs),
            ]
        )
        assert code == 0
        lines = recs.read_text().splitlines()
        assert lines[0].startswith("tid,")
        assert len(lines) == 1 + 300

    def test_export_recommendations_from_model_needs_data(
        self, saved_model, tmp_path, capsys
    ):
        _, model_path = saved_model
        capsys.readouterr()
        code = main(
            [
                "export",
                "--model",
                str(model_path),
                "--out",
                str(tmp_path / "rules.csv"),
                "--recommendations-out",
                str(tmp_path / "recs.csv"),
            ]
        )
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_export_needs_data_or_model(self, tmp_path, capsys):
        code = main(["export", "--out", str(tmp_path / "rules.csv")])
        assert code == 1
        assert "--data" in capsys.readouterr().err

    def test_compare_scores_saved_model_on_shared_folds(self, tmp_path, capsys):
        # Serving a model requires its catalog to cover the evaluation
        # items, so fit the saved model on the same dataset compare uses.
        from repro.data.io import save_transactions
        from repro.eval.experiments import ExperimentScale, get_dataset

        data = tmp_path / "tiny.jsonl"
        save_transactions(get_dataset("I", ExperimentScale.tiny()).db, data)
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "fit",
                    "--data",
                    str(data),
                    "--min-support",
                    "0.02",
                    "--save-model",
                    str(model_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "compare",
                "--dataset",
                "I",
                "--scale",
                "tiny",
                "--systems",
                "PROF+MOA",
                "MPI",
                "--model",
                str(model_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved:PROF+MOA" in out
        # Significance lines: one for MPI, one for the saved row.
        assert out.count("p=") == 2


@pytest.mark.slow
class TestSweepCommand:
    def test_sweep_prints_three_metrics(self, capsys):
        code = main(["sweep", "--dataset", "I", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gain" in out and "hit_rate" in out and "model_size" in out
        assert "PROF+MOA" in out


@pytest.mark.slow
class TestReportCommand:
    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(
            ["report", "--dataset", "I", "--scale", "tiny", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("# Figure 3 reproduction")
        assert "Figure 3(d)" in text
        assert "PROF+MOA" in text


class TestServeCommand:
    def test_parser_accepts_serve_knobs(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--model", "model.json",
                "--port", "0",
                "--max-batch", "32",
                "--max-linger-ms", "0.5",
                "--trace-sample-rate", "0.25",
                "--poll-interval", "2.0",
            ]
        )
        assert args.command == "serve"
        assert args.model == ["model.json"]
        assert args.max_batch == 32
        assert args.trace_sample_rate == 0.25

    def test_parser_accepts_repeated_named_models(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--model", "prod=a.json",
                "--model", "canary=b.json",
                "--port", "0",
            ]
        )
        assert args.model == ["prod=a.json", "canary=b.json"]

    def test_model_spec_parsing(self):
        from repro.cli import _parse_model_specs

        assert _parse_model_specs(["a.json"]) == [(None, "a.json")]
        assert _parse_model_specs(["prod=a.json", "b.json"]) == [
            ("prod", "a.json"),
            (None, "b.json"),
        ]
        # Split on the first '=' only; no name means no '=' prefix.
        assert _parse_model_specs(["x=a=b.json"]) == [("x", "a=b.json")]
        assert _parse_model_specs(["=weird.json"]) == [(None, "=weird.json")]

    def test_serve_requires_model(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_bad_sample_rate_reported_not_raised(self, tmp_path, capsys):
        # Any ProfitMiningError (here: rate out of range) must exit 1
        # with a message, not a traceback.
        code = main(
            [
                "serve",
                "--model", str(tmp_path / "missing.json"),
                "--trace-sample-rate", "7",
            ]
        )
        assert code == 1
        assert "trace sample rate" in capsys.readouterr().err


class TestQueryCommand:
    @pytest.fixture(scope="class")
    def saved_model(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("cli_query")
        data = tmp_path / "data.jsonl"
        main(
            ["generate", "--transactions", "300", "--items", "40", "--out", str(data)]
        )
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "fit",
                    "--data", str(data),
                    "--min-support", "0.02",
                    "--save-model", str(model_path),
                ]
            )
            == 0
        )
        return model_path

    def test_query_table_lists_all_rules(self, saved_model, capsys):
        capsys.readouterr()
        assert main(["query", "--model", str(saved_model)]) == 0
        out = capsys.readouterr().out
        assert "matching rules" in out
        assert "(default)" in out  # the default rule always matches

    def test_query_json_matches_library_answer(self, saved_model, capsys):
        from repro.data.model_io import load_model

        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--model", str(saved_model),
                    "--shape", "concept",
                    "--top", "5",
                    "--json",
                ]
            )
            == 0
        )
        got = json.loads(capsys.readouterr().out)
        expected = load_model(saved_model).query_rules(shape="concept", top=5)
        assert got["n"] == len(expected)
        assert got["hits"] == [hit.to_dict() for hit in expected]

    def test_query_filters_compose(self, saved_model, capsys):
        from repro.data.model_io import load_model

        recommender = load_model(saved_model)
        promo = recommender.ranked_rules[0].rule.head.promo
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    "--model", str(saved_model),
                    "--head-promo", promo,
                    "--min-conf", "0.0",
                    "--json",
                ]
            )
            == 0
        )
        got = json.loads(capsys.readouterr().out)
        assert all(hit["promo"] == promo for hit in got["hits"])
        assert got["n"] == len(recommender.query_rules(head_promo=promo))

    def test_query_missing_model_reported_not_raised(self, capsys):
        code = main(["query", "--model", "/nonexistent/model.json"])
        assert code == 1
        assert capsys.readouterr().err


class TestPlanCommand:
    @pytest.fixture(scope="class")
    def saved_world(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("cli_plan")
        data = tmp_path / "data.jsonl"
        main(
            ["generate", "--transactions", "300", "--items", "40", "--out", str(data)]
        )
        model_path = tmp_path / "model.json"
        assert (
            main(
                [
                    "fit",
                    "--data", str(data),
                    "--min-support", "0.02",
                    "--save-model", str(model_path),
                ]
            )
            == 0
        )
        return {"model": model_path, "data": data}

    def test_plan_prints_table_and_certificate(self, saved_world, capsys):
        capsys.readouterr()
        assert (
            main(
                [
                    "plan",
                    "--model", str(saved_world["model"]),
                    "--data", str(saved_world["data"]),
                    "--max-offers", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "campaign plan" in out
        assert "total E[profit]" in out
        assert "certified <=" in out

    def test_plan_json_matches_library_answer(self, saved_world, capsys):
        from repro.campaign import plan_campaign
        from repro.data.io import load_transactions
        from repro.data.model_io import load_model

        expected = plan_campaign(
            load_model(saved_world["model"]),
            load_transactions(str(saved_world["data"])),
            max_offers=2,
            budget=10.0,
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "plan",
                    "--model", str(saved_world["model"]),
                    "--data", str(saved_world["data"]),
                    "--max-offers", "2",
                    "--budget", "10.0",
                    "--json",
                ]
            )
            == 0
        )
        got = json.loads(capsys.readouterr().out)
        assert got["method"] == expected.method
        assert got["expected_profit"] == pytest.approx(expected.expected_profit)
        assert got["offers"] == [offer.to_dict() for offer in expected.offers]

    def test_plan_inventory_specs(self, saved_world, capsys):
        capsys.readouterr()
        assert (
            main(
                [
                    "plan",
                    "--model", str(saved_world["model"]),
                    "--data", str(saved_world["data"]),
                    "--inventory", "T1=0",
                    "--json",
                ]
            )
            == 0
        )
        got = json.loads(capsys.readouterr().out)
        assert all(offer["item"] != "T1" for offer in got["offers"])
        assert got["inventory"] == {"T1": 0.0}

    def test_plan_rejects_bad_inventory_spec(self, saved_world, capsys):
        capsys.readouterr()
        assert (
            main(
                [
                    "plan",
                    "--model", str(saved_world["model"]),
                    "--data", str(saved_world["data"]),
                    "--inventory", "oops",
                ]
            )
            == 1
        )
        assert "ITEM=UNITS" in capsys.readouterr().err
