"""End-to-end tests of the command-line interface: output contracts, exit
codes, determinism, and the no-partial-file guarantee."""

import json
import subprocess
import sys
from math import comb

import numpy as np
import pytest

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def run_cli(*args, env_extra=None, timeout=None):
    import os
    env = dict(os.environ)
    env.pop("EQUICELL_BUDGET", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "equicell", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


class TestComplex:
    def test_summary_lines(self):
        res = run_cli("complex", "--d", "2", "--n", "3")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "kind=complement d=2 n=3"
        assert lines[1] == "elements=24 covers=60"
        assert lines[2] == "f_vector=(6, 12, 6)"
        assert lines[3] == "euler_characteristic=0"
        assert lines[4] == "checks=ok"

    def test_stratification_kind(self):
        res = run_cli("complex", "--d", "1", "--n", "3", "--kind",
                      "stratification")
        assert res.returncode == 0
        assert "elements=13" in res.stdout
        assert "checks=ok" in res.stdout

    def test_json_output(self, tmp_path):
        out = tmp_path / "poset.json"
        res = run_cli("complex", "--d", "2", "--n", "3", "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "complement"
        assert len(doc["elements"]) == 24
        assert len(doc["covers"]) == 60

    def test_csv_output(self, tmp_path):
        out = tmp_path / "poset.csv"
        res = run_cli("complex", "--d", "2", "--n", "3", "--format", "csv",
                      "--output", str(out))
        assert res.returncode == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "index,dim,label"
        assert len(rows) == 25

    def test_budget_flag(self, tmp_path):
        out = tmp_path / "poset.json"
        res = run_cli("complex", "--d", "2", "--n", "3", "--budget", "10",
                      "--output", str(out))
        assert res.returncode == 2
        assert "error:" in res.stderr
        assert not out.exists()

    def test_budget_env(self, tmp_path):
        out = tmp_path / "poset.json"
        res = run_cli("complex", "--d", "2", "--n", "3", "--output", str(out),
                      env_extra={"EQUICELL_BUDGET": "10"})
        assert res.returncode == 2
        assert not out.exists()

    def test_bad_env_value(self):
        res = run_cli("complex", "--d", "2", "--n", "3",
                      env_extra={"EQUICELL_BUDGET": "many"})
        assert res.returncode == 2

    def test_negative_budget_flag(self, tmp_path):
        out = tmp_path / "poset.json"
        res = run_cli("complex", "--d", "2", "--n", "3", "--budget", "-5",
                      "--output", str(out))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "non-negative" in res.stderr
        assert not out.exists()

    def test_negative_budget_env(self, tmp_path):
        out = tmp_path / "poset.json"
        res = run_cli("complex", "--d", "2", "--n", "3", "--output", str(out),
                      env_extra={"EQUICELL_BUDGET": "-5"})
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and "non-negative" in res.stderr
        assert not out.exists()

    def test_budget_names_labels_or_covers(self):
        # (2, 4) has 192 labels and 864 covers
        res = run_cli("complex", "--d", "2", "--n", "4", "--budget", "191")
        assert res.returncode == 2
        assert "needs 192 labels, budget is 191" in res.stderr
        res = run_cli("complex", "--d", "2", "--n", "4", "--budget", "863")
        assert res.returncode == 2
        assert "needs 864 covers, budget is 863" in res.stderr
        res = run_cli("complex", "--d", "2", "--n", "4", "--budget", "864")
        assert res.returncode == 0 and "covers=864" in res.stdout

    def test_default_budget_refuses_three_seven_at_once(self):
        # 3,674,160 labels fit the default budget, 49,633,920 covers do not
        res = run_cli("complex", "--d", "3", "--n", "7")
        assert res.returncode == 2
        assert res.stderr == ("error: enumeration of (d=3, n=7, complement) needs "
                              "49633920 covers, budget is 5000000\n")

    @pytest.mark.parametrize("d,n", [(2, 2048), (2, 2 ** 22), (10 ** 1000, 6)])
    def test_huge_label_count_is_refused_unformed(self, d, n):
        # n! d^(n-1) labels are named, not formed: n = 2048 and d = 10^1000
        # give more digits than int-to-str allows, and n = 2^22 takes
        # minutes to multiply out
        res = run_cli("complex", "--d", str(d), "--n", str(n), timeout=5)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: enumeration of (d=%d, n=%d, complement) needs n! %d^(n-1) labels,"
            " budget is 5000000" % (d, n, d)]

    @pytest.mark.parametrize("d,n,budget,need", [
        (2, 6, "66604", "66605 labels"),
        (4000000, 2, None, "8000001 labels"),
        (4000000, 3, None, "more than n! 4000000^(n-1) labels")])
    def test_strata_refusal_names_the_exact_count(self, d, n, budget, need):
        # the exact count is sum_k k! S(n, k) d^(k-1); past the instant
        # bound only its lower bound n! d^(n-1) is named
        args = ["complex", "--kind", "stratification", "--d", str(d), "--n", str(n)]
        res = run_cli(*args, *(["--budget", budget] if budget else []), timeout=5)
        assert res.returncode == 2 and res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: enumeration of (d=%d, n=%d, stratification) needs %s, budget is %s"
            % (d, n, need, budget or "5000000")]

    def test_strata_d1_n8_fits_the_default_budget(self):
        # 545,835 labels and 2,724,878 covers, both under 5,000,000
        res = run_cli("complex", "--kind", "stratification", "--d", "1", "--n", "8")
        assert res.returncode == 0
        assert "elements=545835 covers=2724878" in res.stdout
        assert "checks=ok" in res.stdout

    def test_closed_stdout_exits_cleanly(self):
        # the CSV is far larger than a pipe buffer, so the write fails
        # once the reader has gone
        import os
        env = {k: v for k, v in os.environ.items()
               if k not in ("EQUICELL_BUDGET", "PYTHONUNBUFFERED")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "equicell", "complex", "--d", "2", "--n", "6",
             "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        assert proc.stdout.readline() == "kind=complement d=2 n=6\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 2
        assert err.splitlines() == ["error: cannot write stdout: Broken pipe"]

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("complex", "--d", "2", "--n", "4", "--output", str(a))
        run_cli("complex", "--d", "2", "--n", "4", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_arguments(self):
        assert run_cli("complex", "--d", "2").returncode == 2  # argparse
        assert run_cli("complex", "--d", "0", "--n", "3").returncode == 2


class TestObstruction:
    def test_composite_with_witness(self):
        res = run_cli("obstruction", "--n", "6")
        assert res.returncode == 0
        assert "n=6 d=2 gcd=1 group=trivial map_exists=True" in res.stdout
        assert "witness=" in res.stdout

    def test_prime_power_summary(self):
        res = run_cli("obstruction", "--n", "4")
        assert res.returncode == 0
        assert "gcd=2 group=Z/2 map_exists=False" in res.stdout
        assert "witness=" not in res.stdout

    def test_verify_small(self):
        res = run_cli("obstruction", "--n", "4", "--d", "3", "--verify")
        assert res.returncode == 0
        assert "verify=ok" in res.stdout

    def test_verify_composite(self):
        res = run_cli("obstruction", "--n", "6", "--d", "2", "--verify")
        assert res.returncode == 0
        assert "verify=ok" in res.stdout

    def test_json_payload(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli("obstruction", "--n", "8", "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc == {"d": 2, "n": 8, "gcd": 2,
                       "prime_power": {"p": 2, "k": 3}, "group": "Z/2",
                       "map_exists": False, "witness": None}

    def test_json_payload_composite(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli("obstruction", "--n", "6", "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["prime_power"] is None
        assert doc["map_exists"] is True
        assert isinstance(doc["witness"], list) and len(doc["witness"]) == 5

    def test_verify_budget_exceeded(self):
        res = run_cli("obstruction", "--n", "6", "--verify", "--budget", "10")
        assert res.returncode == 2
        assert res.stdout == ""
        assert len(res.stderr.splitlines()) == 1
        # 2^18 - 2 ridge rows of 35 entries each
        res = run_cli("obstruction", "--n", "18", "--verify", timeout=30)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: verifying (d=2, n=18) needs 9174970 ridge row entries,"
            " budget is 5000000"]

    def test_verify_budget_ignores_d(self):
        # the facets and their ridge moves do not grow with d
        res = run_cli("obstruction", "--n", "6", "--d", "10", "--verify")
        assert res.returncode == 0
        assert "verify=ok" in res.stdout

    def test_verify_of_a_huge_n_is_refused_at_once(self):
        # (2^n - 2)(2n - 1) is not formed for this n
        res = run_cli("obstruction", "--n", str(2 ** 22), "--verify", timeout=5)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: verifying (d=2, n=4194304) needs (2^n - 2)(2n - 1) ridge row"
            " entries, budget is 5000000"]

    def test_verify_of_a_prime_power_past_eight(self):
        # 9 = 3^2: one facet's 510 ridge moves, where all 9! facets' would
        # exceed the default budget
        res = run_cli("obstruction", "--n", "9", "--verify", timeout=30)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == [
            "n=9 d=2 gcd=3 group=Z/3 map_exists=False", "verify=ok"]

    def test_witness_over_budget_exits_at_once(self):
        # 10**11 is not a prime power: its witness would have 10**11 - 1 entries
        res = run_cli("obstruction", "--n", "100000000000", timeout=30)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: the witness for n=100000000000 needs 99999999999 entries,"
            " budget is 5000000"]

    def test_witness_budget_flag(self):
        assert run_cli("obstruction", "--n", "12", "--budget", "10").returncode == 2
        res = run_cli("obstruction", "--n", "12", "--budget", "11")
        assert res.returncode == 0
        assert "witness=" in res.stdout

    def test_huge_prime_power_needs_no_witness(self):
        res = run_cli("obstruction", "--n", str(2 ** 40), timeout=30)
        assert res.returncode == 0
        assert "gcd=2 group=Z/2 map_exists=False" in res.stdout

    def test_witness_beyond_the_int_digit_limit(self, tmp_path):
        # entries of the n = 20014 witness have about 6,000 digits, more than
        # Python 3.11's default int-to-str limit of 4,300
        out = tmp_path / "rep.json"
        res = run_cli("obstruction", "--n", "20014", "--output", str(out), timeout=60)
        assert res.returncode == 0, res.stderr
        printed = res.stdout.splitlines()[1]
        assert printed.startswith("witness=(")
        lift = hasattr(sys, "set_int_max_str_digits")  # Python 3.11 on
        limit = sys.get_int_max_str_digits() if lift else None
        if lift:
            sys.set_int_max_str_digits(0)
        try:
            from_json = json.loads(out.read_text())["witness"]
            from_stdout = [int(v) for v in printed[len("witness=("):-1].split(",")]
        finally:
            if lift:
                sys.set_int_max_str_digits(limit)
        assert from_json == from_stdout and len(from_json) == 20013
        assert max(abs(v) for v in from_json) > 10 ** 4300
        assert sum(x * comb(20014, j) for j, x in enumerate(from_json, start=1) if x) == 1

    def test_large_prime_over_factoring_budget(self):
        # 10**14 + 31 is prime: ruling out every factor takes 10**7 - 1 divisions
        res = run_cli("obstruction", "--n", "100000000000031", timeout=30)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: factoring n=100000000000031 needs up to 9999999 trial"
            " divisions, budget is 5000000"]
        res = run_cli("obstruction", "--n", "100000000000031", "--budget", "10000001",
                      timeout=60)
        assert res.returncode == 0
        assert "gcd=100000000000031 group=Z/100000000000031 map_exists=False" in res.stdout

    def assert_verify_fails(self, monkeypatch, capsys, n, stderr):
        from equicell import cli
        monkeypatch.delenv("EQUICELL_BUDGET", raising=False)
        code = cli.main(["obstruction", "--n", str(n), "--verify"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.splitlines()[-1] == "verify=FAILED"
        assert err.splitlines() == [stderr]

    def test_wrong_incidence_row_fails_verify(self, monkeypatch, capsys):
        # the row of n = 4 must be C(4, 1..3) = (4, 6, 4)
        from equicell import cli
        monkeypatch.setattr(cli, "facet_ridge_class_counts",
                            lambda d, n, budget=None: np.array([4, 6, 3]))
        self.assert_verify_fails(monkeypatch, capsys, 4, "incidence check FAILED")

    def test_wrong_witness_fails_verify(self, monkeypatch, capsys):
        # the zero cochain has coboundary 0, not 1
        from dataclasses import replace
        from equicell import RidgeOrbitCochain, cli
        real = cli.obstruction_report
        monkeypatch.setattr(cli, "obstruction_report", lambda d, n, budget=None: replace(
            real(d, n, budget), witness=RidgeOrbitCochain(n, (0,) * (n - 1))))
        self.assert_verify_fails(monkeypatch, capsys, 6, "coboundary check FAILED")


class TestEquipart:
    def weights_fixture(self, tmp_path, **extra):
        payload = {"mode": "weights", "polygon": SQUARE,
                   "sites": [[0.25, 0.5], [0.6, 0.5]]}
        payload.update(extra)
        return write_json(tmp_path / "in.json", payload)

    def test_weights_mode(self, tmp_path):
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["weights"][0] == pytest.approx(0.02625, abs=1e-9)
        assert doc["areas"] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert doc["spread"] == pytest.approx(0.0, abs=1e-9)
        assert len(doc["cells"]) == 2

    def test_weights_output_is_the_diagram_of_its_sites_and_weights(self, tmp_path):
        # reals are written in repr's round-trip form, so the printed sites
        # and weights rebuild the printed areas and perimeters exactly
        from equicell import ConvexPolygon, power_diagram
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "weights", "polygon": SQUARE,
                              "sites": [[0.21, 0.41], [0.62, 0.53], [0.44, 0.78],
                                        [0.81, 0.22], [0.33, 0.6]]})
        res = run_cli("equipart", "--input", fixture)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        pd = power_diagram(ConvexPolygon(tuple(map(tuple, SQUARE))),
                           tuple(map(tuple, doc["sites"])), doc["weights"])
        assert list(pd.areas) == doc["areas"]
        assert list(pd.perimeters) == doc["perimeters"]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "out.csv"
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      "--format", "csv", "--output", str(out))
        assert res.returncode == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "index,site_x,site_y,weight,area,perimeter"
        assert len(rows) == 3

    def test_svg_written(self, tmp_path):
        out = tmp_path / "out.json"
        svg = tmp_path / "out.svg"
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      "--output", str(out), "--svg", str(svg))
        assert res.returncode == 0
        assert svg.read_text().startswith("<svg")

    def assert_write_error(self, tmp_path, flag):
        target = tmp_path / "missing" / "out"
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      flag, str(target))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: cannot write")
        assert len(res.stderr.strip().splitlines()) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]

    def test_output_in_missing_directory(self, tmp_path):
        self.assert_write_error(tmp_path, "--output")

    def test_svg_in_missing_directory(self, tmp_path):
        self.assert_write_error(tmp_path, "--svg")

    def test_output_through_symlink_and_to_a_pipe(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old")
        (tmp_path / "link.json").symlink_to(real)
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      "--output", str(tmp_path / "link.json"))
        assert res.returncode == 0
        assert (tmp_path / "link.json").is_symlink()
        assert json.loads(real.read_text())["converged"] is True
        # stdout is a pipe here; it is written directly, not replaced
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      "--output", "/dev/stdout")
        assert res.returncode == 0
        assert json.loads(res.stdout)["converged"] is True

    def test_determinism(self, tmp_path):
        fixture = self.weights_fixture(tmp_path)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / (name + ".json")
            svg = tmp_path / (name + ".svg")
            run_cli("equipart", "--input", fixture, "--output", str(out),
                    "--svg", str(svg))
            outs.append((out.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]

    def test_equalize_mode(self, tmp_path):
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "equalize", "polygon": SQUARE, "n": 2})
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", fixture, "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["spread"] <= 1e-6
        assert doc["areas"] == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_equalize_deterministic(self, tmp_path):
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "equalize", "polygon": SQUARE, "n": 2,
                              "seed": 1})
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / (name + ".json")
            run_cli("equipart", "--input", fixture, "--output", str(out))
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_clockwise_polygon_accepted(self, tmp_path):
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "weights",
                              "polygon": list(reversed(SQUARE)),
                              "sites": [[0.25, 0.5], [0.75, 0.5]]})
        res = run_cli("equipart", "--input", fixture)
        assert res.returncode == 0

    def test_far_clockwise_polygon_accepted(self, tmp_path):
        # at 1e8 the absolute shoelace sum carries errors above the unit
        # area; relative to the first vertex its sign is right
        far = [[x + 1e8, y + 1e8] for x, y in reversed(SQUARE)]
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "weights", "polygon": far,
                              "sites": [[x + 1e8, y + 1e8] for x, y in
                                        ((0.25, 0.5), (0.6, 0.5))]})
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", fixture, "--output", str(out))
        assert res.returncode == 0, res.stderr
        doc = json.loads(out.read_text())
        assert doc["areas"] == pytest.approx([0.5, 0.5], abs=1e-9)
        assert doc["weights"][0] == pytest.approx(0.02625, abs=1e-6)

    def test_missing_mode_is_input_error(self, tmp_path):
        out = tmp_path / "out.json"
        fixture = write_json(tmp_path / "in.json", {"polygon": SQUARE})
        res = run_cli("equipart", "--input", fixture, "--output", str(out))
        assert res.returncode == 2
        assert not out.exists()

    def test_unreadable_input(self, tmp_path):
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", str(tmp_path / "missing.json"),
                      "--output", str(out))
        assert res.returncode == 2
        assert not out.exists()

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "in.json"
        bad.write_text("{not json")
        res = run_cli("equipart", "--input", str(bad))
        assert res.returncode == 2

    def test_bad_polygon(self, tmp_path):
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "weights", "polygon": [[0, 0], [1, 0]],
                              "sites": [[0.25, 0.5], [0.6, 0.5]]})
        assert run_cli("equipart", "--input", fixture).returncode == 2

    def test_coincident_sites_rejected(self, tmp_path):
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "weights", "polygon": SQUARE,
                              "sites": [[0.5, 0.5], [0.5, 0.5]]})
        assert run_cli("equipart", "--input", fixture).returncode == 2

    def assert_input_error(self, tmp_path, text):
        fixture = tmp_path / "in.json"
        fixture.write_text(text)
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", str(fixture), "--output", str(out),
                      timeout=60)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1
        assert not out.exists()
        return res

    def test_nan_polygon_vertex_rejected(self, tmp_path):
        self.assert_input_error(
            tmp_path, '{"mode": "equalize", "n": 2, "polygon": '
                      '[[0, 0], [1, 0], [1, NaN], [0, 1]]}')

    def test_non_finite_site_rejected(self, tmp_path):
        self.assert_input_error(
            tmp_path, '{"mode": "weights", "polygon": %s, '
                      '"sites": [[0.25, 0.5], [Infinity, 0.5]]}' % json.dumps(SQUARE))

    @pytest.mark.parametrize("polygon, sites", [
        ([[0, 0], [1, 0], [True, 1], [0, 1]], [[0.25, 0.5], [0.6, 0.5]]),
        (SQUARE, [[0.25, 0.5], ["0.2", "0.2"]]),
    ])
    def test_non_number_coordinates_rejected(self, tmp_path, polygon, sites):
        # float() would take true and numeric strings
        self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "polygon": polygon, "sites": sites}))

    def test_far_site_rejected(self, tmp_path):
        # squared coordinates overflowed in the build, which ended in a
        # traceback
        res = self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "polygon": SQUARE,
             "sites": [[0.2, 0.2], [1e160, 0.3]]}))
        assert res.stderr == ("error: bad sites: the sites reach 7.07e+159 polygon"
                              " diameters from its centroid, too far for doubles"
                              " to give every cell area\n")

    @pytest.mark.parametrize("sites", [
        [[1e155, 1e155], [-1e155, 1e155], [1e155, -1e155]],
        [[1e200, 1e200], [-1e200, -1e200], [0.5, 0.5]],
        [[0.2, 0.2], [1.7e308, 0.3], [-1.7e308, 0.3]],
        [[3.9e152, k * 1e140] for k in range(2100)],
    ])
    def test_far_sites_refused_in_one_line(self, tmp_path, sites):
        # every site layout beyond the extent bound, and 2,100 sites inside
        # it whose seed overflows, meets the weight solve's one refusal: one
        # stderr line, no numpy warning, nothing written
        res = self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "polygon": SQUARE, "sites": sites}))
        assert res.stderr.startswith("error: bad sites: the sites reach ")
        assert res.stderr.endswith(" polygon diameters from its centroid,"
                                   " too far for doubles to give every cell area\n")
        res = run_cli("equipart", "--input", str(tmp_path / "in.json"), timeout=60)
        assert res.returncode == 2 and res.stdout == ""

    def test_far_small_polygon_solves(self, tmp_path):
        # a triangle of side 1e140 at (1e153, 1e153) used to be refused,
        # because the origin was put in the extent box
        o, a = 1e153, 1e140
        fixture = write_json(tmp_path / "in.json", {
            "mode": "weights", "polygon": [[o, o], [o + a, o], [o, o + a]],
            "sites": [[o + a * x, o + a * y] for x, y in ((0.2, 0.2), (0.5, 0.3))]})
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", fixture, "--output", str(out))
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert json.loads(out.read_text())["converged"] is True

    def test_tiny_nonconvex_polygon_rejected(self, tmp_path):
        # the convexity tolerance used to stop scaling below unit size, and
        # this arrow of size 1e-5 got a "partition"
        s = 1e-5
        res = self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "sites": [[0.2 * s, 0.2 * s], [0.8 * s, 0.6 * s]],
             "polygon": [[0, 0], [s, 0], [s, s], [0.5 * s, 0.3 * s], [0, s]]}))
        assert res.stderr == "error: bad polygon: vertices are not convex at index 3\n"

    @pytest.mark.parametrize("far", [1e150, 4e152])
    def test_far_site_inside_the_bound_ends_cleanly(self, tmp_path, far):
        # 4e152 is just inside the extent bound; even the solve's seed
        # leaves a cell empty, since doubles cannot place the wall, so the
        # run names the site extent and writes nothing
        self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "polygon": SQUARE,
             "sites": [[0.2, 0.2], [far, 0.3]]}))
        res = run_cli("equipart", "--input", str(tmp_path / "in.json"))
        assert res.stdout == ""
        assert "%.3g polygon diameters" % (far / 2 ** 0.5) in res.stderr

    def test_seed_cell_below_the_area_floor_named(self, tmp_path):
        # a square of side 6e-8 whose equal cells (1.2e-15) clear AREA_EPS,
        # but whose Voronoi seed leaves the cell right of a close pair below
        # it: the one error line names that cell's area, not distance alone
        s = 6e-8
        res = self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "polygon": [[s * x, s * y] for x, y in SQUARE],
             "sites": [[1e-8, 3e-8], [5e-8, 3e-8], [5.5e-8, 3e-8]]}))
        assert res.stderr == ("error: bad sites: even the Voronoi seed leaves a cell"
                              " of area 0, not above AREA_EPS = 1e-15; the sites reach"
                              " 0.295 polygon diameters from its centroid\n")

    def test_non_numeric_tol_rejected(self, tmp_path):
        self.assert_input_error(tmp_path, json.dumps(
            {"mode": "weights", "polygon": SQUARE,
             "sites": [[0.25, 0.5], [0.6, 0.5]], "tol": "tight"}))

    def test_non_numeric_seed_rejected(self, tmp_path):
        self.assert_input_error(tmp_path, json.dumps(
            {"mode": "equalize", "polygon": SQUARE, "n": 2, "seed": "one"}))

    def test_nonconvergence_writes_best_and_fails(self, tmp_path):
        fixture = write_json(
            tmp_path / "in.json",
            {"mode": "weights", "polygon": SQUARE,
             "sites": [[0.21, 0.41], [0.62, 0.53], [0.44, 0.78],
                       [0.81, 0.22], [0.33, 0.6]]})
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", fixture, "--output", str(out),
                      "--tol", "1e-30")
        assert res.returncode == 1
        doc = json.loads(out.read_text())
        assert doc["converged"] is False
        assert len(doc["weights"]) == 5

    def test_overflowing_polygon_rejected(self, tmp_path):
        # area, perimeter and extent overflow; equalize used to end in an
        # OverflowError traceback
        self.assert_input_error(tmp_path, json.dumps(
            {"mode": "equalize", "n": 3,
             "polygon": [[0, 0], [1e200, 0], [0, 1e200]]}))

    def test_search_without_equal_area_diagram_fails_cleanly(
            self, tmp_path, monkeypatch, capsys):
        from equicell import cli, equalize, WeightSolveError

        def never(*args, **kwargs):
            raise WeightSolveError("no weights")

        monkeypatch.setattr(equalize, "solve_equal_measure_weights", never)
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "equalize", "polygon": SQUARE, "n": 2})
        out = tmp_path / "out.json"
        code = cli.main(["equipart", "--input", fixture, "--output", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: no equal-area diagram in ")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_equalize_n_over_budget_rejected(self, tmp_path):
        # one build checks all n(n - 1) site pairs; this used to run for minutes
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "equalize", "polygon": SQUARE, "n": 100000})
        res = run_cli("equipart", "--input", fixture, timeout=5)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: equalize with n=100000 needs 9999900000 site pairs per"
            " power-diagram build, budget is 5000000"]
        res = run_cli("equipart", "--input", fixture, timeout=5,
                      env_extra={"EQUICELL_BUDGET": "9999899999"})
        assert res.returncode == 2 and "budget is 9999899999" in res.stderr

    def test_weights_with_too_many_sites_rejected(self, tmp_path):
        # the same bound as equalize, checked before the O(n^2) site checks
        sites = [[(i % 60) / 60, (i // 60) / 60] for i in range(3000)]
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "weights", "polygon": SQUARE, "sites": sites})
        res = run_cli("equipart", "--input", fixture, timeout=5)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [
            "error: weights with n=3000 needs 8997000 site pairs per"
            " power-diagram build, budget is 5000000"]

    @pytest.mark.parametrize("n, pairs", [(137, 5049272), (300, 53550900)])
    def test_equalize_over_the_step_budget_rejected(self, tmp_path, n, pairs):
        # a Gauss-Newton step solves least squares on its (n - 1) x (2n - 3)
        # Jacobian, about n (n - 1) (2n - 3) multiply-adds
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "equalize", "polygon": SQUARE, "n": n})
        out = tmp_path / "out.json"
        res = run_cli("equipart", "--input", fixture, "--output", str(out), timeout=5)
        assert res.returncode == 2
        assert res.stdout == "" and not out.exists()
        assert res.stderr.splitlines() == [
            "error: equalize with n=%d needs %d multiply-adds per Gauss-Newton step,"
            " budget is 5000000" % (n, pairs)]

    @pytest.mark.parametrize("n", [64, 136])
    def test_equalize_within_the_step_budget_runs(self, tmp_path, monkeypatch,
                                                  capsys, n):
        # 136 * 135 * 269 = 4938840 multiply-adds per step fit the default
        # budget; the search is stubbed to give up at once
        from equicell import cli
        from equicell.equalize import EqualizeError

        def give_up(polygon, n, tol, seed):
            raise EqualizeError("no equal-area diagram in 0 weight solves")

        monkeypatch.delenv("EQUICELL_BUDGET", raising=False)
        monkeypatch.setattr(cli, "equalize_perimeters", give_up)
        fixture = write_json(tmp_path / "in.json",
                             {"mode": "equalize", "polygon": SQUARE, "n": n})
        assert cli.main(["equipart", "--input", fixture]) == 1
        assert capsys.readouterr().err == (
            "error: no equal-area diagram in 0 weight solves\n")

    @pytest.mark.parametrize("payload, message", [
        ([SQUARE], "input must be a JSON object"),
        ({"mode": "weights", "polygon": SQUARE},
         "mode 'weights' needs sites, a list of [x, y] pairs"),
        ({"mode": "weights", "polygon": SQUARE, "sites": [[0.2, 0.2, 3], [0.6, 0.5]]},
         "mode 'weights' needs sites, a list of [x, y] pairs"),
        ({"mode": "weights", "polygon": SQUARE, "sites": [[0.2, 0.2], 0.5]},
         "mode 'weights' needs sites, a list of [x, y] pairs"),
        ({"mode": "equalize", "polygon": SQUARE, "n": True},
         "mode 'equalize' needs integer n >= 2"),
    ])
    def test_malformed_input_named(self, tmp_path, payload, message):
        res = self.assert_input_error(tmp_path, json.dumps(payload))
        assert res.stderr == "error: %s\n" % message

    @pytest.mark.parametrize("payload", [
        {"mode": "weights", "sites": [[(0.1 + 0.2 * (i % 5)) * 1e-7,
                                       (0.125 + 0.25 * (i // 5)) * 1e-7]
                                      for i in range(20)]},
        {"mode": "equalize", "n": 20},
    ])
    def test_cells_below_the_area_floor_rejected(self, tmp_path, payload):
        # 20 cells of a square of side 1e-7 would each hold 5e-16, no more
        # than the AREA_EPS below which a clip counts as empty
        payload["polygon"] = [[1e-7 * x, 1e-7 * y] for x, y in SQUARE]
        res = self.assert_input_error(tmp_path, json.dumps(payload))
        assert res.stderr == ("error: each of n=20 cells would have area 5e-16,"
                              " not above AREA_EPS = 1e-15\n")

    def test_bad_budget_env(self, tmp_path):
        res = run_cli("equipart", "--input", self.weights_fixture(tmp_path),
                      env_extra={"EQUICELL_BUDGET": "lots"})
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: bad EQUICELL_BUDGET value 'lots'\n"

    def test_tol_precedence_flag_over_file(self, tmp_path):
        fixture = self.weights_fixture(tmp_path, tol=1e-30)
        res = run_cli("equipart", "--input", fixture, "--tol", "1e-8")
        assert res.returncode == 0


class TestLabel:
    def test_prints_token_syntax(self, tmp_path):
        fixture = write_json(tmp_path / "pts.json",
                             {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
        res = run_cli("label", "--input", fixture)
        assert res.returncode == 0
        assert res.stdout.strip() == "1<2 3<1 2"

    def test_json_output(self, tmp_path):
        fixture = write_json(tmp_path / "pts.json",
                             {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]})
        out = tmp_path / "lab.json"
        res = run_cli("label", "--input", fixture, "--output", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc == {"label": "1<2 3<1 2", "sigma": [1, 3, 2],
                       "seps": [2, 1], "d": 2, "n": 3}

    def test_bad_points(self, tmp_path):
        fixture = write_json(tmp_path / "pts.json", {"points": "nope"})
        assert run_cli("label", "--input", fixture).returncode == 2

    def test_ragged_points(self, tmp_path):
        fixture = write_json(tmp_path / "pts.json",
                             {"points": [[0.0, 0.0], [1.0]]})
        assert run_cli("label", "--input", fixture).returncode == 2

    def test_non_number_points(self, tmp_path):
        fixture = write_json(tmp_path / "pts.json",
                             {"points": [[True, 0], [1, "2"]]})
        res = run_cli("label", "--input", fixture)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("text", [b"\xff\xfe", b'{"points": [[1%s]]}' % (b"0" * 5000)])
    def test_undecodable_input(self, tmp_path, text):
        # invalid UTF-8, and an integer too long to parse (Python 3.11 on)
        # or to convert to a float
        fixture = tmp_path / "pts.json"
        fixture.write_bytes(text)
        res = run_cli("label", "--input", str(fixture))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_points(self, tmp_path, bad):
        fixture = tmp_path / "pts.json"
        fixture.write_text('{"points": [[0.0, 0.0], [1.0, %s]]}' % bad)
        res = run_cli("label", "--input", str(fixture))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert len(res.stderr.splitlines()) == 1


CLOSED_STDOUT_RUNS = {
    "complex": ["--d", "2", "--n", "4", "--output"],
    "obstruction": ["--n", "6", "--output"],
    "label": ["--input", "{tmp}/pts.json", "--output"],
    # with --output equipart prints nothing, so its file is the SVG
    "equipart": ["--input", "{tmp}/problem.json", "--svg"],
}


@pytest.mark.parametrize("command", sorted(CLOSED_STDOUT_RUNS))
def test_closed_stdout_under_block_buffering(tmp_path, command):
    # stdout is a pipe whose read end is closed before the run starts, and
    # PYTHONUNBUFFERED is unset, so the few lines printed sit in stdout's
    # buffer unless the run flushes them before it renames its file
    import os
    write_json(tmp_path / "pts.json", {"points": [[0, 0], [1, 0], [0, 1]]})
    write_json(tmp_path / "problem.json", {"mode": "weights", "polygon": SQUARE,
                                           "sites": [[0.25, 0.5], [0.6, 0.5]]})
    args = [a.format(tmp=tmp_path) for a in CLOSED_STDOUT_RUNS[command]]
    env = {k: v for k, v in os.environ.items()
           if k not in ("EQUICELL_BUDGET", "PYTHONUNBUFFERED")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "equicell", command, *args, str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr.splitlines() == ["error: cannot write stdout: Broken pipe"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["problem.json", "pts.json"]


def test_device_output_follows_stdout_under_block_buffering(tmp_path):
    # with PYTHONUNBUFFERED unset a piped stdout is block-buffered; the
    # summary is flushed before the JSON goes to /dev/stdout, so it comes first
    import os
    env = {k: v for k, v in os.environ.items()
           if k not in ("EQUICELL_BUDGET", "PYTHONUNBUFFERED")}
    res = subprocess.run(
        [sys.executable, "-m", "equicell", "complex", "--d", "2", "--n", "3",
         "--output", "/dev/stdout"],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0
    assert res.stderr == ""
    summary = run_cli("complex", "--d", "2", "--n", "3").stdout
    run_cli("complex", "--d", "2", "--n", "3", "--output", str(tmp_path / "c.json"))
    assert summary.startswith("kind=complement d=2 n=3\n")
    assert res.stdout == summary + (tmp_path / "c.json").read_text()
