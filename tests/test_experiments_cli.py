import json

import pytest

from groupgeo import cayley, cli, combing, experiments
from groupgeo.errors import MemoryCapExceeded
from groupgeo.groups import verify_presentation


class TestZoo:
    def test_names(self):
        assert experiments.zoo_names() == [
            "braid3", "bs12", "free2", "heis3", "kleinfour", "sl2z", "z2",
        ]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            experiments.get_group("nope")

    @pytest.mark.parametrize("name", experiments.zoo_names())
    def test_presentations_hold(self, name):
        G = experiments.get_group(name)
        report = verify_presentation(G, G.presentation)
        assert report.ok

    def test_z2_growth(self):
        assert cayley.growth_series(experiments.get_group("z2"), 3) == [1, 4, 8, 12]


class TestGroupFromConfig:
    def test_table(self):
        G = experiments.group_from_config(
            {
                "kind": "table",
                "names": ["1", "x", "y", "xy"],
                "table": [
                    [0, 1, 2, 3],
                    [1, 0, 3, 2],
                    [2, 3, 0, 1],
                    [3, 2, 1, 0],
                ],
                "alphabet": ["x", "y"],
                "marking": {"x": "x", "y": "y"},
                "presentation": {"relators": ["x x", "y y", "x y x^-1 y^-1"]},
            }
        )
        assert len(cayley.ball(G, 3)) == 4
        assert verify_presentation(G, G.presentation).ok

    def test_matrix_with_string_entries(self):
        G = experiments.group_from_config(
            {
                "kind": "matrix",
                "dim": 2,
                "alphabet": ["a"],
                "marking": {"a": [["0", "-1"], ["1", "0"]]},
                "presentation": {"relators": ["a a a a"]},
            }
        )
        assert verify_presentation(G, G.presentation).ok
        assert len(cayley.ball(G, 4)) == 4  # cyclic of order 4

    def test_dyadic_affine(self):
        G = experiments.group_from_config(
            {
                "kind": "dyadic_affine",
                "alphabet": ["a", "t"],
                "marking": {"a": [0, 1, 0], "t": [1, 0, 0]},
                "presentation": {"relators": ["t a t^-1 a^-1 a^-1"]},
            }
        )
        assert verify_presentation(G, G.presentation).ok
        zoo = experiments.get_group("bs12")
        assert cayley.growth_series(G, 4) == cayley.growth_series(zoo, 4)

    def test_free(self):
        G = experiments.group_from_config({"kind": "free", "alphabet": ["x", "y"]})
        assert cayley.growth_series(G, 2) == [1, 4, 12]

    def test_braid_default_marking(self):
        G = experiments.group_from_config({"kind": "braid", "strands": 3})
        assert G.alphabet.generators == ("s1", "s2")
        zoo = experiments.get_group("braid3")
        assert cayley.growth_series(G, 3) == cayley.growth_series(zoo, 3)

    def test_product_of_two_lines_is_z2(self):
        G = experiments.group_from_config(
            {
                "kind": "product",
                "factors": [
                    {"kind": "free", "alphabet": ["x"]},
                    {"kind": "free", "alphabet": ["y"]},
                ],
            }
        )
        assert G.alphabet.generators == ("x", "y")
        zoo = experiments.get_group("z2")
        assert cayley.growth_series(G, 4) == cayley.growth_series(zoo, 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            experiments.group_from_config({"kind": "quantum"})

    def test_resolve_zoo_name_and_file(self, tmp_path):
        assert experiments.resolve_group("free2").name == "free2"
        cfg = tmp_path / "line.json"
        cfg.write_text(json.dumps({"kind": "free", "alphabet": ["t"], "name": "line"}))
        G = experiments.resolve_group(str(cfg))
        assert G.name == "line"
        assert cayley.growth_series(G, 2) == [1, 2, 2]


class TestExperiments:
    def test_klein_check(self):
        report = experiments.run_klein_check(4)
        assert report.verdict
        assert report.observed == "unique_order_2"
        assert report.witnesses["order_2_elements"] == ["a a"]
        header = report.tables["order_census"].splitlines()[0]
        assert header == "order,count"

    def test_klein_check_needs_radius_two(self):
        with pytest.raises(ValueError):
            experiments.run_klein_check(1)

    def test_distortion_suite(self):
        reports = experiments.run_distortion_suite()
        assert [r.verdict for r in reports] == [True] * 5
        by_name = {r.name: r for r in reports}
        assert by_name["distortion:a-in-bs12"].observed == "exponential"
        assert by_name["distortion:center-in-heis3"].observed == "polynomial(2)"
        for r in reports:
            assert r.tables["profile"].startswith("n,delta,exact,")

    def test_combing_report(self):
        report = experiments.run_combing_report("free2", 4)
        assert report.verdict
        assert report.observed == "geodesic_equivariant"
        table = report.tables["constants"]
        assert "k2,0" in table
        assert "equivariant,True" in table

    def test_combing_report_tests_the_dense_cap_first(self, monkeypatch):
        monkeypatch.setattr(combing, "_DENSE_DISTANCE_LIMIT", 16)

        def never(*args, **kwargs):
            raise AssertionError("check_quasi_geodesic ran before the dense cap")

        monkeypatch.setattr(combing, "check_quasi_geodesic", never)
        with pytest.raises(MemoryCapExceeded) as exc:
            experiments.run_combing_report("free2", 2)
        assert str(exc.value).startswith("check_bounded: the radius-2 ball has 17 vertices")
        assert (exc.value.cap, exc.value.radius) == (16, 2)

    def test_combing_report_is_seed_stable(self):
        a = experiments.run_combing_report("z2", 3, seed=7)
        b = experiments.run_combing_report("z2", 3, seed=7)
        assert a.tables == b.tables

    def test_cover_table(self):
        report = experiments.run_cover_table(4)
        assert report.verdict
        rows = report.tables["covers"].splitlines()
        n_sigs = len(experiments.surfaces.all_nonorientable_signatures(4))
        assert len(rows) == n_sigs + 1
        assert "N2,S1,0,0,ok,klein_bottle" in rows

    def test_iota_pass(self):
        report = experiments.run_iota_verification(
            {
                "source_group": "cyclic2",
                "target_group": "sl2z",
                "images": ["a a"],
                "J": "a a",
                "radius": 4,
            }
        )
        assert report.observed == "pass"
        assert report.verdict

    def test_iota_expected_failure(self):
        report = experiments.run_iota_verification(
            {
                "source_group": "kleinfour",
                "target_group": "sl2z",
                "images": ["a a", "a a"],
                "J": "a a",
                "radius": 4,
                "expect": "fail",
            }
        )
        assert report.observed == "fail"
        assert report.verdict  # the failure was expected
        assert report.witnesses["collisions"]

    def test_report_json_shape(self):
        report = experiments.run_cover_table(2)
        d = report.to_json_dict()
        assert d["verdict"] is True
        assert set(d) >= {"name", "inputs", "expected", "observed", "tables"}
        json.dumps(d)  # serializable as-is


class TestCli:
    def test_ball_csv(self, capsys):
        assert cli.main(["ball", "--group", "free2", "--radius", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "key,distance,witness_word"
        assert len(out) == 18  # header + |B(2)| = 17

    def test_ball_json(self, capsys):
        assert cli.main(
            ["ball", "--group", "kleinfour", "--radius", "2", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sphere_sizes"] == [1, 2, 1]
        assert len(payload["entries"]) == 4

    def test_ball_out_directory(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert cli.main(
            ["ball", "--group", "free2", "--radius", "1", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        assert (out / "ball.csv").read_text().startswith("key,distance,witness_word")

    def test_klein_check_exit_zero(self, capsys):
        assert cli.main(["klein-check", "--radius", "3"]) == 0
        assert "expected=unique_order_2 observed=unique_order_2" in capsys.readouterr().out

    def test_cover_table_out_files(self, tmp_path, capsys):
        out = tmp_path / "covers"
        assert cli.main(
            ["cover-table", "--max-complexity", "3", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        report = json.loads((out / "cover-table.json").read_text())
        assert report["verdict"] is True
        assert (out / "cover-table.covers.csv").read_text().startswith("base,cover,")

    def test_combing_check(self, capsys):
        assert cli.main(
            ["combing-check", "--group", "z2", "--radius", "3", "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observed"] == "geodesic_equivariant"

    def test_combing_check_dense_cap_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(combing, "_DENSE_DISTANCE_LIMIT", 16)
        assert cli.main(["combing-check", "--group", "free2", "--radius", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: check_bounded: the radius-2 ball has 17 vertices")
        assert "dense distance-matrix cap of 16" in err

    def test_centralizer(self, capsys):
        assert cli.main(
            ["centralizer", "--group", "free2", "--radius", "3", "--element", "x"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "member"
        assert out.splitlines()[-1].startswith("k,")

    def test_verify_hom_pass(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        lift.write_text(json.dumps(
            {
                "source_group": "cyclic2",
                "target_group": "sl2z",
                "images": ["a a"],
                "J": "a a",
                "radius": 3,
            }
        ))
        assert cli.main(["verify-hom", "--lift", str(lift)]) == 0
        capsys.readouterr()

    def test_verify_hom_unexpected_verdict_is_exit_one(self, tmp_path, capsys):
        lift = tmp_path / "lift.json"
        lift.write_text(json.dumps(
            {
                "source_group": "cyclic2",
                "target_group": "sl2z",
                "images": ["a a"],
                "J": "a a",
                "radius": 3,
                "expect": "fail",
            }
        ))
        assert cli.main(["verify-hom", "--lift", str(lift)]) == 1
        capsys.readouterr()

    def test_unknown_group_is_exit_two(self, capsys):
        assert cli.main(["ball", "--group", "nope", "--radius", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_group_names_both_readings(self, capsys):
        assert cli.main(["ball", "--group", "nope", "--radius", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown group 'nope': not a zoo name (braid3, bs12, free2, "
            "heis3, kleinfour, sl2z, z2) and no such file\n"
        )

    def test_library_key_error_prints_unquoted(self, monkeypatch, capsys):
        def unknown(*args, **kwargs):
            raise KeyError("unknown group 'nope'; known: z2")

        monkeypatch.setattr(experiments, "run_combing_report", unknown)
        assert cli.main(["combing-check", "--group", "z2", "--radius", "2"]) == 2
        assert capsys.readouterr().err == "error: unknown group 'nope'; known: z2\n"

    @pytest.mark.parametrize("group", ["nope", "line.json"])
    def test_combing_check_takes_zoo_names_only(self, group, tmp_path, monkeypatch, capsys):
        # a config that ball accepts is still not a zoo name
        monkeypatch.chdir(tmp_path)
        (tmp_path / "line.json").write_text(json.dumps(
            {"kind": "free", "alphabet": ["t"]}
        ))
        with pytest.raises(SystemExit) as exc:
            cli.main(["combing-check", "--group", group, "--radius", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --group: invalid choice: '{group}'" in err
        assert "'braid3', 'bs12', 'free2', 'heis3', 'kleinfour', 'sl2z', 'z2'" in err
        assert cli.main(["ball", "--group", "line.json", "--radius", "2"]) == 0

    def test_missing_lift_file_is_exit_two(self, capsys):
        assert cli.main(["verify-hom", "--lift", "/does/not/exist.json"]) == 2
        capsys.readouterr()

    def test_negative_radius_is_exit_two(self, capsys):
        assert cli.main(["ball", "--group", "free2", "--radius", "-3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["ball", "--group", "free2", "--radius", "6"],
        ["distortion"],
        ["combing-check", "--group", "free2", "--radius", "4"],
        ["centralizer", "--group", "free2", "--radius", "4", "--element", "x"],
        ["klein-check", "--radius", "6"],
    ], ids=lambda argv: argv[0])
    def test_element_cap_is_exit_two(self, argv, capsys):
        assert cli.main([*argv, "--max-elements", "10"]) == 2
        assert "ball enumeration exceeded 10 elements" in capsys.readouterr().err

    def test_distortion_names_each_case_the_cap_stopped(self, capsys):
        assert cli.main(["distortion", "--max-elements", "10"]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            f"error: {case['name']}: ball enumeration exceeded 10 elements at radius 2"
            for case in experiments._suite_cases()
        ]
        # stdout still carries every case's report
        assert out.count("observed=error:MemoryCapExceeded") == len(err.splitlines())

    def test_centralizer_scans_the_ball_once(self, monkeypatch, capsys):
        # a member scan runs to the end; a conjugator search stops at its
        # first conjugator, which always exists
        scan = combing._conjugators_in_ball
        full_scans = []

        def counted(*args):
            yield from scan(*args)
            full_scans.append(args)

        monkeypatch.setattr(combing, "_conjugators_in_ball", counted)
        assert cli.main(
            ["centralizer", "--group", "free2", "--radius", "4", "--element", "x y"]
        ) == 0
        assert len(full_scans) == 1
        # the members are the powers of x y in B(4)
        assert capsys.readouterr().out == (
            "member\n()\n(0, 2)\n(3, 1)\n(0, 2, 0, 2)\n(3, 1, 3, 1)\nk,1\n"
        )

    def test_centralizer_decodes_only_the_members(self, monkeypatch, capsys):
        # a free2 ball is packed: its elements, keys and key dict are never
        # decoded, only the rows of the members and of their lines
        def refuse(layers):
            raise AssertionError("decoded the whole ball")

        monkeypatch.setattr(cayley._PackedLayers, "elements", refuse)
        assert cli.main(
            ["centralizer", "--group", "free2", "--radius", "4", "--element", "x y"]
        ) == 0
        assert capsys.readouterr().out == (
            "member\n()\n(0, 2)\n(3, 1)\n(0, 2, 0, 2)\n(3, 1, 3, 1)\nk,1\n"
        )

    @pytest.mark.parametrize("config, message", [
        ({"alphabet": ["t"]}, "missing field 'kind'"),
        ({"kind": "product", "factors": [{"kind": "free", "alphabet": ["x"]}, {"alphabet": ["y"]}]},
         "missing field 'kind'"),
        ({"kind": "table", "alphabet": ["a"], "table": [[0]]}, "missing field 'names'"),
        ({"kind": "matrix", "dim": 2, "alphabet": ["a"], "marking": {}},
         "generator 'a' has no marking"),
        ({"kind": "free", "alphabet": ["a", "b"], "marking": {"b": "junk"}},
         "unexpected field 'marking' for kind 'free'"),
        ({"kind": "product", "factors": [{"kind": "free", "alphabet": ["x"]}], "marking": {}},
         "unexpected field 'marking' for kind 'product'"),
        ({"kind": "product", "factors": [{"kind": "free", "alphabet": ["x"], "marking": {"x": "y"}}]},
         "unexpected field 'marking' for kind 'free'"),
        ({"kind": "nope", "alphabet": ["a"]}, "unknown group kind 'nope'"),
        ({"kind": "matrix", "dim": 2, "alphabet": ["a"], "marking": {"a": [[2, 0], [0, 1]]}},
         "matrix is not invertible over the integers"),
        ('{"kind": ', "Expecting value: line 1 column 10 (char 9)"),
    ], ids=["kind", "factor-kind", "names", "marking", "free-marking", "product-marking",
            "factor-free-marking", "unknown-kind", "determinant-2", "truncated-json"])
    def test_config_error_names_file_and_field(self, config, message, tmp_path, monkeypatch, capsys):
        # a config given as a string is written as it is, malformed or not
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(config if isinstance(config, str) else json.dumps(config))
        assert cli.main(["ball", "--group", "cfg.json", "--radius", "2"]) == 2
        assert capsys.readouterr().err == f"error: group config cfg.json: {message}\n"
