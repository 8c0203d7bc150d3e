import json
import warnings

import numpy as np
import pytest

from curvespace import euclidean3d, make_path, path_from_dict, path_to_dict, plane, rho_kappa_defect
from curvespace.cli import run
from curvespace.elastica import default_surface_frame

FLAT_DISTANCE_1_TO_2 = 3.7098994412119352


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def flat_path_file(tmp_path):
    out = tmp_path / "p.json"
    code = run(
        [
            "circles", "--curvature", "0", "--r0", "1", "--r1", "2",
            "--s-samples", "16", "--t-samples", "64", "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestCircles:
    def test_writes_path_and_trajectory(self, tmp_path):
        out = tmp_path / "p.json"
        traj = tmp_path / "t.csv"
        code = run(
            [
                "circles", "--curvature", "1", "--r0", "0.3", "--r1", "1.2",
                "--s-samples", "12", "--t-samples", "48",
                "--out", str(out), "--traj", str(traj),
            ]
        )
        assert code == 0
        data = read_json(out)
        assert data["space"]["model"] == "sphere2d"
        assert data["s_samples"] == 12 and data["t_samples"] == 48
        lines = traj.read_text().strip().split("\n")
        assert lines[0] == "s,r,conserved"
        assert len(lines) == 13

    def test_round_trip_identical_curve_path(self, flat_path_file):
        data = read_json(flat_path_file)
        path = path_from_dict(data)
        assert np.asarray(data["points"]).shape == (16, 64, 2)
        assert np.array_equal(path.points, np.asarray(data["points"]))

    def test_deterministic_bytes(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            run(["circles", "--curvature", "0", "--r0", "1", "--r1", "2", "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_flags_usage_error(self, capsys):
        assert run(["circles", "--r0", "1"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_radius_usage_error(self):
        assert run(["circles", "--curvature", "0", "--r0", "1", "--r1", "1", "--out", "/tmp/x.json"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["circles", "--curvature", "nan", "--r0", "1", "--r1", "2"],
            ["circles", "--curvature", "0", "--r0", "nan", "--r1", "2"],
            ["circles", "--curvature", "0", "--r0", "1", "--r1", "inf"],
            ["helices", "--pitch", "inf", "--r0", "1", "--r1", "2"],
            ["helices", "--pitch", "1", "--r0", "-inf", "--r1", "2"],
        ],
    )
    def test_non_finite_flag_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run(argv + ["--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_rejected(self):
        assert run(["circles", "--curvature", "0", "--r0", "1", "--r1", "2", "--out", "/tmp/x.json", "--bogus", "3"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["circles", "--curvature", "0", "--r0", "1", "--r1", "2"],
            ["helices", "--pitch", "0.5", "--r0", "1", "--r1", "2"],
        ],
        ids=["circles", "helices"],
    )
    def test_empty_traj_name_is_an_io_error(self, argv, tmp_path, capsys):
        # an empty --traj names no file, as an empty --out does: exit 3, nothing written
        out = tmp_path / "p.json"
        assert run(argv + ["--s-samples", "8", "--t-samples", "32",
                           "--out", str(out), "--traj", ""]) == 3
        assert capsys.readouterr().err.startswith("io error:")
        assert not out.exists()


class TestDistance:
    def test_flat_distance_printed(self, flat_path_file, capsys):
        assert run(["distance", "--input", str(flat_path_file)]) == 0
        printed = capsys.readouterr().out.strip()
        value = float(printed)
        # 12 significant digits formatting
        assert len(printed.replace(".", "").replace("-", "").lstrip("0")) <= 12
        assert value == pytest.approx(FLAT_DISTANCE_1_TO_2, rel=5e-3)

    def test_missing_file_is_input_error(self, tmp_path):
        assert run(["distance", "--input", str(tmp_path / "nope.json")]) == 3

    def test_invalid_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["distance", "--input", str(bad)]) == 3

    def test_wrong_schema_is_input_error(self, tmp_path):
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps({"points": [[0, 0]]}))
        assert run(["distance", "--input", str(bad)]) == 3

    @pytest.mark.parametrize("probe", ["non_utf8_byte", "deep_nesting", "huge_integer"])
    def test_undecodable_file_is_input_error(self, probe, flat_path_file, tmp_path, capsys):
        # UnicodeDecodeError, RecursionError and the digit-limit ValueError of the decoder
        text = flat_path_file.read_bytes()
        bad = tmp_path / "bad.json"
        if probe == "non_utf8_byte":
            bad.write_bytes(text.replace(b'"closed"', b'"clo\xffsed"'))
        elif probe == "deep_nesting":
            bad.write_text("[" * 100_000)
        else:
            assert b'"t_samples":64' in text
            bad.write_bytes(text.replace(b'"t_samples":64', b'"t_samples":' + b"9" * 5000))
        assert run(["distance", "--input", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("invalid input:")

    def test_boolean_among_points_is_input_error(self, flat_path_file, tmp_path, capsys):
        data = read_json(flat_path_file)
        data["points"][3][5][1] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run(["distance", "--input", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input:") and "points" in captured.err


class TestCheck:
    @pytest.mark.parametrize(
        "curvature,r0,r1", [("0", "1", "2"), ("1", "0.3", "1.2"), ("-1", "1", "2")]
    )
    def test_rho_kappa_sup_matches_per_sample_loop(self, curvature, r0, r1, tmp_path):
        # the report's sup against rho_kappa_defect, row by row
        out, report_file = tmp_path / "p.json", tmp_path / "report.json"
        assert run(["circles", "--curvature", curvature, "--r0", r0, "--r1", r1,
                    "--s-samples", "16", "--t-samples", "64", "--out", str(out)]) == 0
        assert run(["check", "--input", str(out), "--report", str(report_file)]) == 0
        path = path_from_dict(read_json(out))
        loop = [float(np.max(np.abs(row))) for row in rho_kappa_defect(path)]
        assert read_json(report_file)["rho_kappa_sup"] == loop

    @pytest.mark.parametrize("family", ["circles", "helices", "non_normal"])
    def test_variation_block_matches_row_oracles(self, family, tmp_path):
        from test_stack_diagnostics import oracle_normal_omega_discrepancy, oracle_variation_report

        out, report_file = tmp_path / "p.json", tmp_path / "report.json"
        if family == "non_normal":
            # reparametrization drift on a fixed circle: tangential everywhere
            n, m = 64, 9
            t = 2 * np.pi * np.arange(n) / n
            a = 1.0 + 0.5 * np.sin(t)
            pts = np.stack([np.stack([np.cos(t + (sj - 0.5) * a), np.sin(t + (sj - 0.5) * a)], axis=1)
                            for sj in np.linspace(0, 1, m)])
            out.write_text(json.dumps(path_to_dict(make_path(plane(), pts, closed=True))))
        else:
            argv = ["circles", "--curvature", "1"] if family == "circles" else ["helices", "--pitch", "0.5"]
            assert run(argv + ["--r0", "0.3", "--r1", "1.2", "--s-samples", "16", "--t-samples", "64",
                               "--out", str(out)]) == 0
        assert run(["check", "--input", str(out), "--report", str(report_file)]) == 0
        report = read_json(report_file)
        path = path_from_dict(read_json(out))
        j = path.m // 2
        for quantity, block in report["variations"].items():
            _, _, sup_error = oracle_variation_report(path, quantity, j, 1)
            _, _, coarse = oracle_variation_report(path, quantity, j, 2)
            assert block["sup_error"] == sup_error
            assert block["convergence_factor"] == coarse / sup_error
            if quantity == "omega" and report["normal"]:
                assert block["normal_form_discrepancy"] == oracle_normal_omega_discrepancy(path, j)
            else:
                assert "normal_form_discrepancy" not in block
        assert report["normal"] == (family != "non_normal")

    def test_derivatives_computed_once_over_the_stack(self, tmp_path, monkeypatch):
        # D_T c' (shared by the speed) and D_T^2 c' for the diagnostics; no per-row rerun
        from curvespace import discrete_curves, sobolev_metric, variations

        out, report_file = tmp_path / "p.json", tmp_path / "report.json"
        assert run(["circles", "--curvature", "1", "--r0", "0.3", "--r1", "1.2",
                    "--s-samples", "12", "--t-samples", "48", "--out", str(out)]) == 0
        shapes = []

        def counting(curve, field):
            shapes.append(np.shape(field))
            return discrete_curves.cov_d_T(curve, field)

        for module in (sobolev_metric, variations):
            monkeypatch.setattr(module, "cov_d_T", counting, raising=False)
        assert run(["check", "--input", str(out), "--report", str(report_file)]) == 0
        assert shapes == [(12, 48, 3)] * 2

    def test_undefined_frame_rejected(self, tmp_path, capsys):
        # a normal path of straight segments in R^3: kappa = 0, so rho is undefined
        t = np.linspace(0.0, 1.0, 32)
        pts = np.stack([np.stack([t, 0.0 * t + s, 0.0 * t], axis=1) for s in np.linspace(0, 1, 5)])
        path_file, report_file = tmp_path / "p.json", tmp_path / "report.json"
        path_file.write_text(json.dumps(path_to_dict(make_path(euclidean3d(), pts, closed=False))))
        assert run(["check", "--input", str(path_file), "--report", str(report_file)]) == 1
        assert "Frenet frame undefined" in capsys.readouterr().err
        assert not report_file.exists()

    def test_report_contents(self, flat_path_file, tmp_path):
        report_file = tmp_path / "report.json"
        assert run(["check", "--input", str(flat_path_file), "--report", str(report_file)]) == 0
        report = read_json(report_file)
        assert report["normal"] is True
        assert max(report["horizontality_sup"]) <= 1e-6
        assert report["speed_drift"] <= 5e-3
        assert max(report["rho_kappa_sup"]) <= 1e-5
        assert set(report["variations"]) == {"omega", "kappa"}
        for block in report["variations"].values():
            assert "sup_error" in block

    def test_helix_path_check(self, tmp_path):
        out = tmp_path / "h.json"
        assert run(
            ["helices", "--pitch", "1", "--r0", "1", "--r1", "2",
             "--s-samples", "12", "--t-samples", "64", "--out", str(out)]
        ) == 0
        data = read_json(out)
        assert data["pitch"] == 1.0
        report_file = tmp_path / "hr.json"
        assert run(["check", "--input", str(out), "--report", str(report_file)]) == 0
        report = read_json(report_file)
        assert max(report["horizontality_sup"]) <= 1e-4


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad,code", [(float("nan"), 3), (1e308, 2)])
    def test_path_with_non_finite_point(self, bad, code, flat_path_file, tmp_path, capsys):
        # NaN is rejected on load (exit 3); 1e308 loads but overflows (exit 2)
        data = read_json(flat_path_file)
        data["points"][3][5][0] = bad
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))
        report = tmp_path / "report.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["distance", "--input", str(bad_file)]) == code
            assert run(["check", "--input", str(bad_file), "--report", str(report)]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().out == ""
        assert not report.exists()

    @pytest.mark.parametrize("pitch", [float("nan"), float("inf"), 1e308])
    @pytest.mark.parametrize("subcommand", ["check", "distance", "render"])
    def test_helix_path_with_non_finite_pitch(self, pitch, subcommand, tmp_path, capsys):
        # a non-finite screw shift 2 pi pitch is rejected on load (exit 3)
        good = tmp_path / "h.json"
        assert run(["helices", "--pitch", "0.5", "--r0", "1", "--r1", "1.5",
                    "--s-samples", "8", "--t-samples", "32", "--out", str(good)]) == 0
        data = read_json(good)
        data["pitch"] = pitch
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = {
            "check": ["check", "--input", str(bad_file), "--report", str(out)],
            "distance": ["distance", "--input", str(bad_file)],
            "render": ["render", "--input", str(bad_file), "--out", str(out)],
        }[subcommand]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 3
        assert [str(w.message) for w in caught] == []
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid input" in captured.err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value", [("pitch", "x"), ("pitch", [1]), ("closed", "no"), ("closed", 1)]
    )
    @pytest.mark.parametrize("subcommand", ["check", "distance", "render"])
    def test_malformed_pitch_or_closed_flag(self, key, value, subcommand, tmp_path, capsys):
        # a helix path for "pitch"; a circle path, where any truthy "closed" once loaded
        good = tmp_path / "p.json"
        argv = (["helices", "--pitch", "0.5"] if key == "pitch" else ["circles", "--curvature", "0"])
        assert run(argv + ["--r0", "1", "--r1", "1.5", "--s-samples", "8", "--t-samples", "32",
                           "--out", str(good)]) == 0
        data = read_json(good)
        data[key] = value
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = {
            "check": ["check", "--input", str(bad_file), "--report", str(out)],
            "distance": ["distance", "--input", str(bad_file)],
            "render": ["render", "--input", str(bad_file), "--out", str(out)],
        }[subcommand]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("invalid input:") and key in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("keys,value", [
        (("pitch",), "0.5"),
        (("pitch",), True),
        (("s_samples",), 8.9),
        (("t_samples",), 32.5),
        (("space", "curvature"), "1"),
        (("space", "curvature"), True),
        (("points",), "strings"),
    ])
    @pytest.mark.parametrize("subcommand", ["check", "distance", "render"])
    def test_path_fields_are_not_coerced(self, keys, value, subcommand, tmp_path, capsys):
        # each value once loaded as float() or int() of itself
        good = tmp_path / "p.json"
        argv = ["helices", "--pitch", "0.5"] if keys == ("pitch",) else ["circles", "--curvature", "1"]
        assert run(argv + ["--r0", "1", "--r1", "1.5", "--s-samples", "8", "--t-samples", "32",
                           "--out", str(good)]) == 0
        data = read_json(good)
        if value == "strings":
            value = [[[repr(x) for x in point] for point in row] for row in data["points"]]
        record = data
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = value
        bad_file = tmp_path / "bad.json"
        bad_file.write_text(json.dumps(data))
        out = tmp_path / "out"
        argv = {
            "check": ["check", "--input", str(bad_file), "--report", str(out)],
            "distance": ["distance", "--input", str(bad_file)],
            "render": ["render", "--input", str(bad_file), "--out", str(out)],
        }[subcommand]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("invalid input:") and keys[-1] in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("keys,value", [
        (("start", "k"), "1.0"),
        (("K",), False),
        (("init_frame", "origin"), ["1.0", "0.0", "0.0"]),
    ])
    def test_endpoint_fields_are_not_coerced(self, keys, value, tmp_path, capsys):
        spec = json.loads(json.dumps(CIRCLE_ENDPOINTS))
        record = spec
        for key in keys[:-1]:
            record = record[key]
        record[keys[-1]] = value
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out, trace = tmp_path / "path.json", tmp_path / "trace.csv"
        code = run(["elastica", "--spec", str(spec_file), "--control-points", "1",
                    "--s-samples", "5", "--t-samples", "32", "--out", str(out), "--trace", str(trace)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("invalid input:") and keys[-1] in captured.err
        assert not out.exists() and not trace.exists()

    def test_elastica_spec_with_nan_length(self, tmp_path, capsys):
        spec = {
            "K": 0.0,
            "L": float("nan"),
            "start": {"k": 1.0, "lambda": 1.0, "mu": 0.0},
            "end": {"k": 0.8, "lambda": 0.64, "mu": 0.0},
            "init_frame": {
                "origin": [1.0, 0.0, 0.0],
                "T": [0.0, 1.0, 0.0],
                "N": [-1.0, 0.0, 0.0],
                "B": [0.0, 0.0, 1.0],
            },
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "path.json"
        code = run(["elastica", "--spec", str(spec_file), "--out", str(out),
                    "--trace", str(tmp_path / "trace.csv")])
        assert code == 3
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()


class TestRender:
    def test_svg_output(self, flat_path_file, tmp_path):
        fig = tmp_path / "fig.svg"
        assert run(["render", "--input", str(flat_path_file), "--out", str(fig)]) == 0
        text = fig.read_text()
        assert text.startswith("<svg")
        assert text.count("<polyline") == 16
        assert "date" not in text and "time" not in text

    def test_3d_projection(self, tmp_path):
        out = tmp_path / "h.json"
        run(["helices", "--pitch", "0.5", "--r0", "1", "--r1", "1.5",
             "--s-samples", "8", "--t-samples", "32", "--out", str(out)])
        fig = tmp_path / "h.svg"
        assert run(["render", "--input", str(out), "--out", str(fig)]) == 0
        assert fig.read_text().count("<polyline") == 8

    def test_deterministic_bytes(self, flat_path_file, tmp_path):
        figs = []
        for name in ("f1.svg", "f2.svg"):
            fig = tmp_path / name
            run(["render", "--input", str(flat_path_file), "--out", str(fig)])
            figs.append(fig.read_bytes())
        assert figs[0] == figs[1]


CIRCLE_ENDPOINTS = {
    "K": 0.0,
    "L": 2 * np.pi,
    "start": {"k": 1.0, "lambda": 1.0, "mu": 0.0},
    "end": {"k": 0.8, "lambda": 0.64, "mu": 0.0},
    "init_frame": {
        "origin": [1.0, 0.0, 0.0],
        "T": [0.0, 1.0, 0.0],
        "N": [-1.0, 0.0, 0.0],
        "B": [0.0, 0.0, 1.0],
    },
}

HYPERBOLIC_ENDPOINTS = {
    "K": -1.0,
    "L": 3.0,
    "start": {"k": 1.5, "lambda": 1.0, "mu": 0.0},
    "end": {"k": 1.5, "lambda": 1.5, "mu": 0.0},
    "init_frame": {"origin": [0.0, 0.0, 1.0], "T": [1.0, 0.0, 0.0], "N": [0.0, 1.0, 0.0]},
}


class TestIntegerFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["elastica", "--spec", "s.json", "--seed", "-1"],
            ["elastica", "--spec", "s.json", "--control-points", "0"],
            ["elastica", "--spec", "s.json", "--s-samples", "-3"],
            ["helices", "--pitch", "1", "--r0", "1", "--r1", "2", "--t-samples", "-5"],
            ["circles", "--curvature", "0", "--r0", "1", "--r1", "2", "--s-samples", "0"],
            ["circles", "--curvature", "0", "--r0", "1", "--r1", "2", "--t-samples", "1.5"],
        ],
    )
    def test_rejected_at_parse_time(self, argv, tmp_path, capsys):
        out = tmp_path / "o.json"
        argv = argv + ["--out", str(out)] + (["--trace", "t.csv"] if argv[0] == "elastica" else [])
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["circles", "--curvature", "0", "--r0", "1", "--r1", "2",
             "--t-samples", "1000000000000"],
            ["helices", "--pitch", "1", "--r0", "1", "--r1", "2", "--s-samples", str(1 << 21)],
            # each count under the bound, their product past it
            ["circles", "--curvature", "0", "--r0", "1", "--r1", "2",
             "--s-samples", "1024", "--t-samples", "1025"],
            ["elastica", "--spec", "s.json", "--control-points", "1025"],
        ],
    )
    def test_sample_counts_past_the_bound_are_usage_errors(self, argv, tmp_path, monkeypatch,
                                                          capsys):
        import curvespace.cli as cli

        def no_handler(opt):
            raise AssertionError("handler ran")

        # the bound is checked at parse time; nothing may reach an allocation
        monkeypatch.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, no_handler))
        out = tmp_path / "o.json"
        argv = argv + ["--out", str(out)] + (["--trace", "t.csv"] if argv[0] == "elastica" else [])
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert f"exceeds {cli.MAX_SAMPLES}" in err
        assert not out.exists()

    def test_sample_counts_at_the_bound_parse(self):
        from curvespace.cli import MAX_SAMPLES, parse_command

        side = int(MAX_SAMPLES**0.5)
        assert side * side == MAX_SAMPLES
        command = parse_command(["circles", "--curvature", "0", "--r0", "1", "--r1", "2",
                                 "--s-samples", str(side), "--t-samples", str(side),
                                 "--out", "o.json"])
        assert command.options["s_samples"] * command.options["t_samples"] == MAX_SAMPLES
        command = parse_command(["elastica", "--spec", "s.json", "--control-points", str(side),
                                 "--out", "o.json", "--trace", "t.csv"])
        assert command.options["control_points"] == side

    def test_too_few_path_samples_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        import curvespace.elastica as el

        def no_search(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(el, "minimize", no_search)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(CIRCLE_ENDPOINTS))
        out = tmp_path / "path.json"
        code = run(["elastica", "--spec", str(spec_file), "--s-samples", "2",
                    "--out", str(out), "--trace", str(tmp_path / "trace.csv")])
        assert code == 1
        assert "m >= 3" in capsys.readouterr().err
        assert not out.exists()


class TestElasticaCommand:
    def test_seeded_runs_repeat_byte_for_byte(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(CIRCLE_ENDPOINTS))
        outputs = []
        # --seed is accepted but has no effect: the trust-region search is deterministic
        for attempt, seed in enumerate(["0", "0", "7"]):
            out, trace = tmp_path / f"path{attempt}.json", tmp_path / f"trace{attempt}.csv"
            code = run(["elastica", "--spec", str(spec_file), "--control-points", "1",
                        "--seed", seed, "--s-samples", "7", "--t-samples", "64",
                        "--out", str(out), "--trace", str(trace)])
            assert code == 0
            outputs.append((out.read_bytes(), trace.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[2] == outputs[0]
        rows = outputs[0][1].decode().strip().split("\n")[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        assert len(energies) >= 2
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_identical_endpoints_fast_path(self, tmp_path):
        spec = {
            "K": 0.0,
            "L": 2 * np.pi,
            "start": {"k": 1.0, "lambda": 1.0, "mu": 0.0},
            "end": {"k": 1.0, "lambda": 1.0, "mu": 0.0},
            "init_frame": {
                "origin": [1.0, 0.0, 0.0],
                "T": [0.0, 1.0, 0.0],
                "N": [-1.0, 0.0, 0.0],
                "B": [0.0, 0.0, 1.0],
            },
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "path.json"
        trace = tmp_path / "trace.csv"
        code = run(
            ["elastica", "--spec", str(spec_file), "--control-points", "2",
             "--s-samples", "9", "--t-samples", "64",
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "iter,energy"
        assert float(lines[1].split(",")[1]) <= 1e-10
        data = read_json(out)
        assert data["s_samples"] == 9

    def test_torsion_on_a_surface_is_a_usage_error(self, tmp_path, capsys):
        frame = default_surface_frame(1.0)
        spec = {
            "K": 1.0,
            "L": 3.0,
            "start": {"k": 2.0, "lambda": 6.0, "mu": 0.3},
            "end": {"k": 1.5, "lambda": 4.25, "mu": 0.0},
            "init_frame": {"origin": frame.origin.tolist(), "T": frame.T.tolist(),
                           "N": frame.N.tolist()},
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out, trace = tmp_path / "path.json", tmp_path / "trace.csv"
        code = run(["elastica", "--spec", str(spec_file), "--control-points", "1",
                    "--s-samples", "5", "--t-samples", "32",
                    "--out", str(out), "--trace", str(trace)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("usage error:")
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_binormal_of_the_wrong_shape_is_input_error(self, K, tmp_path, capsys):
        # flat: a full search; K = 1: identical endpoints, a search of one visit
        if K == 0.0:
            spec = json.loads(json.dumps(CIRCLE_ENDPOINTS))
        else:
            frame = default_surface_frame(1.0)
            triple = {"k": 2.0, "lambda": 6.0, "mu": 0.0}
            spec = {"K": 1.0, "L": 3.0, "start": triple, "end": triple,
                    "init_frame": {"origin": frame.origin.tolist(), "T": frame.T.tolist(),
                                   "N": frame.N.tolist()}}
        spec["init_frame"]["B"] = [[0.0, 0.0, 1.0]]
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out, trace = tmp_path / "path.json", tmp_path / "trace.csv"
        code = run(["elastica", "--spec", str(spec_file), "--control-points", "1",
                    "--s-samples", "5", "--t-samples", "32",
                    "--out", str(out), "--trace", str(trace)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("invalid input:")
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize(
        "endpoints, field, value",
        [
            pytest.param(CIRCLE_ENDPOINTS, "T", [0.0, 2.0, 0.0], id="T-value0"),
            pytest.param(CIRCLE_ENDPOINTS, "N", [1.0, 0.0, 0.0], id="N-value1"),
            pytest.param(CIRCLE_ENDPOINTS, "B", [0.0, 0.0, -1.0], id="B-value2"),
            # the hyperboloid's normal is timelike: a 1e-8 normal part must still show
            pytest.param(HYPERBOLIC_ENDPOINTS, "T", [1.0, 0.0, 1e-8], id="hyperbolic-T"),
        ],
    )
    def test_invalid_frame_is_input_error(self, endpoints, field, value, tmp_path, capsys):
        spec = json.loads(json.dumps(endpoints))
        spec["init_frame"][field] = value
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out, trace = tmp_path / "path.json", tmp_path / "trace.csv"
        code = run(["elastica", "--spec", str(spec_file), "--out", str(out), "--trace", str(trace)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid input:") and err.count("\n") == 1
        assert not out.exists() and not trace.exists()

    def test_bad_spec_is_input_error(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"K": 0.0}))
        assert run(
            ["elastica", "--spec", str(spec_file), "--out", "/tmp/o.json", "--trace", "/tmp/t.csv"]
        ) == 3

    def test_real_optimization_run(self, tmp_path):
        # small circle-to-circle search; the optimized Sobolev length must
        # approach the concentric-geodesic distance for r: 1 -> 1.25
        spec = {
            "K": 0.0,
            "L": 2 * np.pi,
            "start": {"k": 1.0, "lambda": 1.0, "mu": 0.0},
            "end": {"k": 0.8, "lambda": 0.64, "mu": 0.0},
            "init_frame": {
                "origin": [1.0, 0.0, 0.0],
                "T": [0.0, 1.0, 0.0],
                "N": [-1.0, 0.0, 0.0],
                "B": [0.0, 0.0, 1.0],
            },
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "path.json"
        trace = tmp_path / "trace.csv"
        code = run(
            ["elastica", "--spec", str(spec_file), "--control-points", "1",
             "--seed", "0", "--s-samples", "9", "--t-samples", "64",
             "--out", str(out), "--trace", str(trace)]
        )
        assert code == 0
        rows = trace.read_text().strip().split("\n")[1:]
        energies = [float(r.split(",")[1]) for r in rows]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        from curvespace import plane, solve_concentric_geodesic

        ref, _ = solve_concentric_geodesic(plane(), 1.0, 1.25, m=8, n=64)
        assert np.sqrt(energies[-1]) == pytest.approx(ref.distance, rel=0.02)
        data = read_json(out)
        assert data["s_samples"] == 9 and data["t_samples"] == 64


class TestExitCodes:
    def test_numeric_failure_exit_code(self, tmp_path):
        # pitch = 1e308 overflows the helix profile: the quadrature fails to converge
        out = tmp_path / "x.json"
        assert run(["helices", "--pitch", "1e308", "--r0", "1", "--r1", "2", "--out", str(out)]) == 2

    def test_overflow_reports_only_the_failure(self, tmp_path, capfd):
        out = tmp_path / "x.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["helices", "--pitch", "1e308", "--r0", "1", "--r1", "2", "--out", str(out)])
        assert code == 2
        assert [str(w.message) for w in caught] == []  # no RuntimeWarning reaches stderr
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("numeric failure:")
        assert not out.exists()

    def test_overflowing_conserved_quantity(self, tmp_path, capfd):
        # sqrt(E) = 6.7e299 is finite but E = inf; once written to every CSV row
        out, traj = tmp_path / "x.json", tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["circles", "--curvature", "0", "--r0", "1", "--r1", "1e200",
                        "--out", str(out), "--traj", str(traj)])
        assert code == 2
        assert [str(w.message) for w in caught] == []
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith("numeric failure:")
        assert not out.exists() and not traj.exists()
