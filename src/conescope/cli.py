"""Config-driven experiment runner.

    conescope --config cfg.json --command ray --out reports/

Every diagnostic is a command; the config is a strict JSON document (unknown
keys are rejected, as are descriptor keys their kind does not read) naming
the group, the order, the automaton and the numeric parameters. Reports are
written as JSON plus a text summary and are byte-identical across repeated
runs: they hold no wall times (their "timings" key is always null), and
there is no flag to record them.

Exit codes, from the table EXIT_CODES (the README's table lists the same):
0  certified-tree, certified-exhaustive, hucha-certified; or a pass bounded
   by what was checked: pass on B(R) (axioms, ray; also components,
   export-dot and a path built), PASS up to lmax (dfa-verify, dfa-qg),
   prieto-consistent on the radii surveyed
1  fail, FAIL, not-separating, NotAccepted
2  UNKNOWN, evidence, disconnection-evidence, WitnessNotFound,
   NoDeclaredCofinalCenter, PathNotFound
3  usage or configuration error (any ValueError or TypeError raised while
   reading or running the config included), or an exceeded cap
4  internal error

Flags are written in full, as `--flag value` or `--flag=value`.

Environment: CONESCOPE_CAP (a non-negative integer, default 10^7) is put on
the model a command runs on as its `cap`, which bounds the nodes of every
ball. Two caps are fixed: the language sample of dfa-qg (500,000 words) and
the reachability search of dfa-verify (2,000,000 state-element pairs).
Nothing else in the environment changes a report, the hash seed
(PYTHONHASHSEED) included.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

from . import __version__
from .automata import (
    ConeDfa,
    connectivity_radius,
    quasigeodesic_check,
    regular_interpolation,
    verify_cone_dfa,
)
from .dot import export_dot
from .errors import (
    ConescopeError,
    ConfigError,
    NoDeclaredCofinalCenter,
    NotAccepted,
    PathNotFound,
    WitnessNotFound,
)
from .geometry import (
    cofinal_positive_path,
    connectivity_survey,
    product_column_swamp,
    r_components,
    tree_swamp_certificate,
    verify_maxima_ray,
    verify_separation,
)
from .groups import DEFAULT_CAP, DirectProduct, FreeGroup, model_from_descriptor
from .orders import order_from_descriptor, verify_order_axioms
from .words import parse_word

COMMANDS = ("axioms", "ray", "components", "swamp", "survey", "cofinal-path",
            "dfa-verify", "dfa-path", "dfa-qg", "export-dot")

# one config document serves every command; commands read what they need
KNOWN_KEYS = {"group", "order", "dfa", "radius", "width", "radii",
              "search_radius", "lmax", "lambda", "c", "word", "pair", "pairs",
              "seed"}

EXIT_USAGE = 3
EXIT_INTERNAL = 4

# every outcome of a command: a verdict value that reports serialize, or an
# error that ends the command with a report
EXIT_CODES = {
    "certified-tree": 0, "certified-exhaustive": 0, "hucha-certified": 0,
    "pass": 0, "PASS": 0, "prieto-consistent": 0,
    "fail": 1, "FAIL": 1, "not-separating": 1, NotAccepted: 1,
    "UNKNOWN": 2, "evidence": 2, "disconnection-evidence": 2,
    WitnessNotFound: 2, NoDeclaredCofinalCenter: 2, PathNotFound: 2,
}
OUTCOME_ERRORS = tuple(k for k in EXIT_CODES if isinstance(k, type))

USAGE = ("usage: conescope [-h] --config CONFIG --command COMMAND [--out OUT] "
         "[--radius RADIUS] [--width WIDTH] [--lmax LMAX]")
# flag -> the type of its value; --config and --command are required
FLAGS = {"--config": str, "--command": str, "--out": str, "--radius": int,
         "--width": int, "--lmax": int}


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config key {key!r} is required for this command")
    return config[key]


def _fraction(config: dict, key: str, default: int):
    """An exact constant: a JSON integer or a string such as "3/2"."""
    # imported here: `fractions` loads `decimal`, which at module level
    # raised the peak RSS of every command by about 0.5 MB
    from fractions import Fraction

    value = config.get(key, default)
    if type(value) is int or isinstance(value, str):  # never a bool or float
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"config key {key!r} must be an integer or a fraction "
                      f"string such as \"3/2\"")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _load_dfa(spec, config_dir: Path) -> ConeDfa:
    if isinstance(spec, str):
        try:
            with open(config_dir / spec, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"DFA file {spec} is not valid JSON: {exc}") from exc
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            raise ConfigError(f"cannot read DFA file {spec}: {exc}") from exc
    if not isinstance(spec, dict):
        raise ConfigError("dfa must be an inline object or a file path")
    try:
        return ConeDfa.from_json(spec)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad DFA description: {exc}") from exc


class Runner:
    def __init__(self, config: dict, command: str, overrides: dict,
                 config_dir: Path):
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        unknown = set(config) - KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.command = command
        self.config = {**config, **overrides}
        self.config_dir = config_dir
        try:
            self.cap = int(os.environ.get("CONESCOPE_CAP", DEFAULT_CAP))
            if self.cap < 0:
                raise ValueError
        except ValueError:
            raise ConfigError(
                "CONESCOPE_CAP must be a non-negative integer") from None

    # -- config pieces ------------------------------------------------------

    def model(self):
        try:
            model = model_from_descriptor(_require(self.config, "group"))
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"bad group descriptor: {exc}") from exc
        model.cap = self.cap
        return model

    def oracle(self):
        model = self.model()
        try:
            return order_from_descriptor(_require(self.config, "order"), model)
        except (ValueError, TypeError, KeyError, ConescopeError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad order descriptor: {exc}") from exc

    def int_param(self, key: str, default=...) -> int:
        """The integer at the key; with no default (...) the key is required."""
        if key not in self.config:
            if default is ...:
                raise ConfigError(f"config key {key!r} is required")
            return default
        value = self.config[key]
        if type(value) is not int:  # a bool or float is refused
            raise ConfigError(f"config key {key!r} must be an integer")
        return value

    # -- dispatch ------------------------------------------------------------

    def run(self) -> tuple[int, dict, str]:
        """The exit code, payload and summary of the command. A handler
        returns its outcome, a key of EXIT_CODES, with the other two."""
        handler = getattr(self, "cmd_" + self.command.replace("-", "_"))
        try:
            outcome, payload, summary = handler()
        except OUTCOME_ERRORS as exc:
            outcome, payload = type(exc), {"error": str(exc)}
            summary = f"{self.command}: {exc}"
        return EXIT_CODES[outcome], payload, summary

    def cmd_axioms(self):
        oracle = self.oracle()
        radius = self.int_param("radius")
        report = verify_order_axioms(oracle, radius)
        payload = {
            "passed": report.passed,
            "checked": report.checked,
            "partition_failures": list(report.partition_failures),
            "identity_failures": list(report.identity_failures),
            "closure_failures": list(report.closure_failures),
        }
        return "pass" if report.passed else "fail", payload, report.summary()

    def cmd_ray(self):
        oracle = self.oracle()
        depth = self.int_param("radius")
        report = verify_maxima_ray(oracle, depth)
        payload = {
            "passed": report.passed,
            "maxima": [str(g) for g in report.maxima],
            "length_failures": list(report.length_failures),
            "successor_failures": list(report.successor_failures),
            "geodesic_failures": list(report.geodesic_failures),
            "negativity_failures": list(report.negativity_failures),
        }
        return "pass" if report.passed else "fail", payload, report.summary()

    def cmd_components(self):
        oracle = self.oracle()
        radius = self.int_param("radius")
        width = self.int_param("width", 1)
        report = r_components(oracle, width, radius)
        payload = {
            "count": report.count,
            "sizes": [len(c) for c in report.components],
            "representatives": [str(g) for g in report.representatives],
        }
        return "pass", payload, report.summary()

    def cmd_swamp(self):
        oracle = self.oracle()
        width = self.int_param("width", 1)
        model = oracle.model
        if isinstance(model, FreeGroup):
            search = self.int_param("search_radius", None)
            radius = None
            cert = tree_swamp_certificate(oracle, width, search_radius=search)
        elif isinstance(model, DirectProduct):
            radius = self.int_param("radius", width + 4)
            cert = product_column_swamp(oracle, width, radius)
        else:
            raise ConfigError(
                "swamp construction needs a free group or a product model")
        result = verify_separation(cert, radius=radius)
        payload = cert.to_json()
        payload["separation"] = result.verdict.value
        if result.avoiding_path is not None:
            payload["avoiding_path"] = result.avoiding_path.words()
        summary = cert.summary() + "; " + result.summary()
        return result.verdict.value, payload, summary

    def cmd_survey(self):
        oracle = self.oracle()
        width = self.int_param("width", 1)
        radii = self.config.get("radii")
        if (not isinstance(radii, list) or not radii
                or any(type(R) is not int for R in radii)):
            raise ConfigError("survey needs a non-empty list of integer radii")
        report = connectivity_survey(oracle, width, radii)
        payload = {
            "radii": list(report.radii),
            "counts": list(report.counts),
            "stable": report.stable,
            "classification": report.classification.value,
            "verdict": report.verdict,
        }
        if report.certificate is not None:
            payload["certificate"] = report.certificate.to_json()
        return report.classification.value, payload, report.summary()

    def cmd_cofinal_path(self):
        oracle = self.oracle()
        model = oracle.model
        pairs = []
        if "pair" in self.config and "pairs" in self.config:
            raise ConfigError("cofinal-path takes 'pair' or 'pairs', not both")
        if "pair" in self.config:
            raw = self.config["pair"]
            if (not isinstance(raw, list) or len(raw) != 2
                    or not all(isinstance(w, str) for w in raw)):
                raise ConfigError("config key 'pair' must be a list of two "
                                  "word strings")
            g, h = model.element(raw[0]), model.element(raw[1])
            if not (oracle.is_positive(g) and oracle.is_positive(h)):
                raise ConfigError("pair: both endpoints must be positive")
            pairs.append((g, h))
        elif "pairs" in self.config:
            count = self.int_param("pairs")
            if count < 1:
                raise ConfigError("pairs must be at least 1")
            radius = self.int_param("radius", 4)
            seed = self.int_param("seed", 2026)
            rng = random.Random(seed)
            positives = oracle.positives(model.ball(radius))
            if len(positives) < 2:
                raise ConfigError("not enough positive elements to sample")
            for _ in range(count):
                pairs.append((rng.choice(positives), rng.choice(positives)))
        else:
            raise ConfigError("cofinal-path needs 'pair' or 'pairs'")
        spelled: dict[tuple, str] = {}  # the paths share most points
        results = []
        for g, h in pairs:  # a path runs from g to h
            keys = cofinal_positive_path(oracle, g, h).keys
            for k in set(keys).difference(spelled):
                spelled[k] = model.text(k)
            words = [spelled[k] for k in keys]
            results.append({"from": words[0], "to": words[-1], "points": words})
        summary = f"cofinal-path: {len(results)} positive path(s) constructed"
        return "pass", {"paths": results}, summary

    def cmd_dfa_verify(self):
        model = self.model()
        dfa = _load_dfa(_require(self.config, "dfa"), self.config_dir)
        radius = self.int_param("radius")
        lmax = self.int_param("lmax", None)
        report = verify_cone_dfa(dfa, model, radius, lmax)
        payload = {
            "verdict": report.verdict,
            "in_ball": [str(g) for g in report.in_ball],
            "unresolved": [str(g) for g in report.unresolved],
            "counterexamples": list(report.counterexamples),
        }
        return report.verdict, payload, report.summary()

    def cmd_dfa_path(self):
        model = self.model()
        dfa = _load_dfa(_require(self.config, "dfa"), self.config_dir)
        if not isinstance(word := _require(self.config, "word"), str):
            raise ConfigError("config key 'word' must be a string")
        word = parse_word(word, model.alphabet)
        path = regular_interpolation(dfa, model, word)
        gaps = path.gaps()
        bound = connectivity_radius(dfa)
        payload = {"points": path.words(), "gaps": gaps, "bound": bound}
        summary = (f"dfa-path: {len(path)} points, max gap "
                   f"{max(gaps, default=0)} <= {bound}")
        return "pass", payload, summary

    def cmd_dfa_qg(self):
        model = self.model()
        dfa = _load_dfa(_require(self.config, "dfa"), self.config_dir)
        lam = _fraction(self.config, "lambda", 1)
        c = _fraction(self.config, "c", 0)
        lmax = self.int_param("lmax", 8)
        report = quasigeodesic_check(dfa, model, lam, c, lmax)
        payload = {"verdict": report.verdict, "lambda": str(report.lam),
                   "c": str(report.c)}
        if report.violation is not None:
            payload["violation"] = list(report.violation)
        return report.verdict, payload, report.summary()

    def cmd_export_dot(self):
        oracle = self.oracle()
        radius = self.int_param("radius")
        width = self.int_param("width", 1)
        dot = export_dot(oracle, width, radius)
        payload = {"dot": dot, "radius": radius, "width": width}
        nodes = dot.count("[label=")
        edges = dot.count(" -- ")
        return "pass", payload, f"export-dot: {nodes} nodes, {edges} edges"


def _write_reports(out_dir: Path, command: str, code: int, payload: dict,
                   summary: str, config: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {
        "command": command,
        "tool_version": __version__,
        "inputs": config,
        "exit_code": code,
        "result": payload,
        "timings": None,  # kept, always null, for stable report bytes
    }
    # a dict is JSON, streamed chunk by chunk: the report is never one string
    files = {f"{command}.report.json": report,
             f"{command}.report.txt": (f"conescope {__version__} :: {command}\n"
                                       f"{summary}\nexit code {code}\n")}
    if command == "export-dot":
        files["ball.dot"] = payload["dot"]
    if command == "swamp" and "error" not in payload:
        files["certificate.json"] = {k: v for k, v in payload.items()
                                     if k not in ("separation", "avoiding_path")}
    encoder = json.JSONEncoder(indent=2, sort_keys=True)
    for name, content in files.items():
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            if isinstance(content, dict):
                fh.writelines(encoder.iterencode(content))
                content = "\n"
            fh.write(content)


def _parse_args(argv: list[str]) -> dict | None:
    """The flags given, by name ("config", "radius", ...), or None for help.
    A usage error raises ConfigError."""
    values, args = {}, iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        flag, eq, value = arg.partition("=")
        if flag not in FLAGS:
            raise ConfigError(f"unrecognized argument: {arg}")
        value = value if eq else next(args, "-")
        # a flag, or nothing, is no value; a negative number is one
        if not eq and value.startswith("-") and not value[1:].isdigit():
            raise ConfigError(f"argument {flag}: expected one argument")
        try:
            values[flag[2:]] = FLAGS[flag](value)
        except ValueError:
            raise ConfigError(f"argument {flag}: invalid int value: "
                              f"{value!r}") from None
    missing = ", ".join(f for f in ("--config", "--command")
                        if f[2:] not in values)
    if missing:
        raise ConfigError(f"the following arguments are required: {missing}")
    return values


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"{USAGE}\nconescope: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args is None:
        print(f"{USAGE}\ncommands: {', '.join(COMMANDS)}")
        return 0

    # what is left in args are the overrides of the config
    path, command = args.pop("config"), args.pop("command")
    out = args.pop("out", ".")
    try:
        config = _load_config(path)
        runner = Runner(config, command, overrides=args,
                        config_dir=Path(path).resolve().parent)
        code, payload, summary = runner.run()
        try:
            _write_reports(Path(out), command, code, payload, summary,
                           runner.config)
        except OSError as exc:
            raise ConfigError(
                f"cannot write reports to {out}: {exc}") from exc
    except (ConescopeError, ValueError, TypeError) as exc:
        # malformed input, whichever layer notices it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only an internal error pays for the import
        traceback.print_exc()
        return EXIT_INTERNAL
    print(summary)
    return code


def entry() -> None:
    """Run `main` and leave without interpreter teardown (reports are closed
    and no exit handler is registered); sys.exit reports a failed flush."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
