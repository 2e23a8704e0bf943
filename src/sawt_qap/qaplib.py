"""QAPLIB-format ingestion: parsing, bundled fixtures, cache, and fetch.

File format (whitespace-token based, newlines not significant):

* ``.dat``: integer ``n``, then ``n*n`` flow entries row-major, then ``n*n``
  distance entries row-major.
* ``.sln``: ``n``, the objective value, then an ``n``-entry optimal
  permutation (0- or 1-based; detected automatically).

Instance files are looked up in this order: an explicit directory argument,
then the ``SAWT_QAP_DATA_DIR`` environment variable or, when it is unset, the
user cache directory that :func:`fetch` downloads into, and finally the
bundled fixture set.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import QapInstance, is_permutation
from .errors import ParseError, ValidationError

__all__ = [
    "QaplibEntry",
    "parse_qaplib",
    "format_qaplib",
    "parse_solution",
    "format_solution",
    "parse_name",
    "known_bounds",
    "list_fixtures",
    "fixture_dir",
    "default_data_dir",
    "find_data_file",
    "load_instance",
    "load_solution",
    "load_entry",
    "fetch",
    "DEFAULT_BASE_URL",
]

DEFAULT_BASE_URL = "https://qaplib.mgmt.wisc.edu"

_NAME_RE = re.compile(r"^([a-zA-Z]+)(\d+)([a-z]?)$")
_TOKEN_RE = re.compile(rb"\S+")

# Best known solution values (upper bounds) for the standard benchmark set.
# Zero means the instance is degenerate (any permutation is optimal), which
# reporting code must special-case: a percentage gap is undefined.
_KNOWN_BOUNDS: dict[str, int] = {
    "bur26a": 5426670, "bur26b": 3817852, "bur26c": 5426795, "bur26d": 3821225,
    "bur26e": 5386879, "bur26f": 3782044, "bur26g": 10117172, "bur26h": 7098658,
    "chr12a": 9552, "chr12b": 9742, "chr12c": 11156, "chr15a": 9896,
    "chr15b": 7990, "chr15c": 9504, "chr18a": 11098, "chr18b": 1534,
    "chr20a": 2192, "chr20b": 2298, "chr20c": 14142, "chr22a": 6156,
    "chr22b": 6194, "chr25a": 3796,
    "els19": 17212548,
    "esc16a": 68, "esc16b": 292, "esc16c": 160, "esc16d": 16, "esc16e": 28,
    "esc16f": 0, "esc16g": 26, "esc16h": 996, "esc16i": 14, "esc16j": 8,
    "esc32a": 130, "esc32b": 168, "esc32c": 642, "esc32d": 200, "esc32e": 2,
    "esc32g": 6, "esc32h": 438, "esc64a": 116, "esc128": 64,
    "had12": 1652, "had14": 2724, "had16": 3720, "had18": 5358, "had20": 6922,
    "kra30a": 88900, "kra30b": 91420, "kra32": 88700,
    "lipa20a": 3683, "lipa20b": 27076, "lipa30a": 13178, "lipa30b": 151426,
    "lipa40a": 31538, "lipa40b": 476581, "lipa50a": 62093, "lipa50b": 1210244,
    "lipa60a": 107218, "lipa60b": 2520135, "lipa70a": 169755, "lipa70b": 4603200,
    "lipa80a": 253195, "lipa80b": 7763962, "lipa90a": 360630, "lipa90b": 12490441,
    "nug12": 578, "nug14": 1014, "nug15": 1150, "nug16a": 1610, "nug16b": 1240,
    "nug17": 1732, "nug18": 1930, "nug20": 2570, "nug21": 2438, "nug22": 3596,
    "nug24": 3488, "nug25": 3744, "nug27": 5234, "nug28": 5166, "nug30": 6124,
    "rou12": 235528, "rou15": 354210, "rou20": 725522,
    "scr12": 31410, "scr15": 51140, "scr20": 110030,
    "sko42": 15812, "sko49": 23386, "sko56": 34458, "sko64": 48498,
    "sko72": 66256, "sko81": 90998, "sko90": 115534, "sko100a": 152002,
    "sko100b": 153890, "sko100c": 147862, "sko100d": 149576, "sko100e": 149150,
    "sko100f": 149036,
    "ste36a": 9526, "ste36b": 15852, "ste36c": 8239110,
    "tai12a": 224416, "tai12b": 39464925, "tai15a": 388214, "tai15b": 51765268,
    "tai17a": 491812, "tai20a": 703482, "tai20b": 122455319, "tai25a": 1167256,
    "tai25b": 344355646, "tai30a": 1818146, "tai30b": 637117113,
    "tai35a": 2422002, "tai35b": 283315445, "tai40a": 3139370,
    "tai40b": 637250948, "tai50a": 4938796, "tai50b": 458821517,
    "tai60a": 7205962, "tai60b": 608215054, "tai64c": 1855928,
    "tai80a": 13499184, "tai80b": 818415043, "tai100a": 21052466,
    "tai100b": 1185996137, "tai150b": 498896643,
    "tho30": 149936, "tho40": 240516, "tho150": 8133398,
    "wil50": 48816, "wil100": 273038,
}


@dataclass(frozen=True)
class QaplibEntry:
    """A named benchmark instance with its parsed data and known bound."""

    name: str
    category: str
    instance: QapInstance
    upper_bound: float | None = None


def known_bounds() -> dict[str, int]:
    """Copy of the embedded best-known-solution table (name -> value)."""
    return dict(_KNOWN_BOUNDS)


def parse_name(name: str) -> tuple[str, int, str]:
    """Split an instance name into (category, size, variant).

    ``"nug12" -> ("nug", 12, "")``, ``"sko100a" -> ("sko", 100, "a")``.

    Raises:
        ValidationError: If the name does not match ``letters digits
            [letter]``.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise ValidationError(f"unrecognized instance name format: {name!r}")
    return m.group(1).lower(), int(m.group(2)), m.group(3)


def _tokens(data: bytes | str):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return data, list(_TOKEN_RE.finditer(data))


def _numeric(tok: re.Match, source: str | None) -> float:
    text = tok.group().decode("ascii", errors="replace")
    try:
        return float(text)
    except ValueError:
        raise ParseError(
            f"expected a number, got {text!r}", offset=tok.start(), source=source
        ) from None


def parse_qaplib(data: bytes | str, name: str | None = None) -> QapInstance:
    """Parse QAPLIB ``.dat`` content into a :class:`QapInstance`.

    Tokens are read in order: ``n``, n*n flow entries, n*n distance entries.
    Any whitespace layout is accepted.

    Raises:
        ParseError: On a non-numeric token, a token count mismatch, or a
            non-positive ``n`` — always with the byte offset of the problem.
        ValidationError: If the matrices violate instance invariants
            (negative or non-finite entries).
    """
    raw, toks = _tokens(data)
    if not toks:
        raise ParseError("empty instance file", offset=0, source=name)
    n_val = _numeric(toks[0], name)
    if n_val != int(n_val) or int(n_val) < 1:
        raise ParseError(
            f"instance size must be a positive integer, got {toks[0].group().decode()}",
            offset=toks[0].start(),
            source=name,
        )
    n = int(n_val)
    need = 1 + 2 * n * n
    if len(toks) < need:
        raise ParseError(
            f"truncated file: expected {need} tokens for n={n}, found {len(toks)}",
            offset=len(raw),
            source=name,
        )
    if len(toks) > need:
        raise ParseError(
            f"trailing data: expected {need} tokens for n={n}, found {len(toks)}",
            offset=toks[need].start(),
            source=name,
        )
    values = np.array([_numeric(t, name) for t in toks[1:]], dtype=np.float64)
    flow = values[: n * n].reshape(n, n)
    distance = values[n * n :].reshape(n, n)
    return QapInstance(name=name or f"qap{n}", flow=flow, distance=distance)


def _fmt(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def format_qaplib(inst: QapInstance) -> str:
    """Canonical ``.dat`` text for an instance (parse round-trips exactly)."""
    lines = [str(inst.n), ""]
    for mat in (inst.flow, inst.distance):
        lines.extend(" ".join(_fmt(v) for v in row) for row in mat)
        lines.append("")
    return "\n".join(lines)


def parse_solution(data: bytes | str, name: str | None = None):
    """Parse ``.sln`` content into ``(n, value, sigma)`` with 0-based sigma.

    The permutation base is auto-detected: entries ``0..n-1`` are taken as
    0-based, entries ``1..n`` as 1-based.

    Raises:
        ParseError: On malformed content, with byte offset.
    """
    raw, toks = _tokens(data)
    if len(toks) < 2:
        raise ParseError("solution file needs at least n and a value",
                         offset=len(raw), source=name)
    n_val = _numeric(toks[0], name)
    if n_val != int(n_val) or int(n_val) < 1:
        raise ParseError("solution size must be a positive integer",
                         offset=toks[0].start(), source=name)
    n = int(n_val)
    value = _numeric(toks[1], name)
    perm_toks = toks[2:]
    if len(perm_toks) != n:
        offset = perm_toks[n].start() if len(perm_toks) > n else len(raw)
        raise ParseError(
            f"expected {n} permutation entries, found {len(perm_toks)}",
            offset=offset, source=name,
        )
    entries = [_numeric(t, name) for t in perm_toks]
    if any(e != int(e) for e in entries):
        bad = next(t for t, e in zip(perm_toks, entries) if e != int(e))
        raise ParseError("permutation entries must be integers",
                         offset=bad.start(), source=name)
    sigma = np.array([int(e) for e in entries], dtype=np.int64)
    if is_permutation(sigma, n):
        return n, value, sigma
    if is_permutation(sigma - 1, n):
        return n, value, sigma - 1
    raise ParseError(
        "entries are not a permutation (neither 0- nor 1-based)",
        offset=perm_toks[0].start(), source=name,
    )


def format_solution(value: float, sigma: np.ndarray) -> str:
    """Canonical ``.sln`` text (1-based permutation, QAPLIB style)."""
    body = " ".join(str(int(v) + 1) for v in sigma)
    return f"{len(sigma)} {_fmt(value)}\n{body}\n"


# ---------------------------------------------------------------------------
# Locating data files.
# ---------------------------------------------------------------------------


def fixture_dir():
    """Traversable directory of the bundled fixture files."""
    return resources.files("sawt_qap").joinpath("data/qaplib")


def list_fixtures() -> list[str]:
    """Names of the bundled instances (sorted)."""
    return sorted(
        p.name[: -len(".dat")]
        for p in fixture_dir().iterdir()
        if p.name.endswith(".dat")
    )


def default_data_dir() -> Path:
    """Writable data directory: ``SAWT_QAP_DATA_DIR`` or the user cache."""
    env = os.environ.get("SAWT_QAP_DATA_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(Path.home(), ".cache")
    return Path(xdg) / "sawt-qap" / "qaplib"


def find_data_file(filename: str, data_dir: str | Path | None = None):
    """Locate ``filename`` (e.g. ``"had12.dat"``) or return ``None``.

    Search order: explicit ``data_dir``, ``SAWT_QAP_DATA_DIR`` / user cache,
    bundled fixtures.
    """
    dirs = []
    if data_dir is not None:
        dirs.append(Path(data_dir))
    dirs.append(default_data_dir())
    for d in dirs:
        path = d / filename
        if path.is_file():
            return path
    bundled = fixture_dir().joinpath(filename)
    if bundled.is_file():
        return bundled
    return None


def load_instance(name: str, data_dir: str | Path | None = None) -> QapInstance:
    """Load ``<name>.dat`` from the data search path.

    Raises:
        FileNotFoundError: If the instance is not available locally.
        ParseError, ValidationError: If the file is malformed.
    """
    path = find_data_file(f"{name}.dat", data_dir)
    if path is None:
        raise FileNotFoundError(
            f"instance {name!r} not found locally; run `sawt-qap qaplib fetch {name}` "
            "or set SAWT_QAP_DATA_DIR to a directory containing it"
        )
    return parse_qaplib(path.read_bytes(), name=name)


def load_solution(name: str, data_dir: str | Path | None = None):
    """Load ``<name>.sln`` as ``(n, value, sigma)`` or raise FileNotFoundError."""
    path = find_data_file(f"{name}.sln", data_dir)
    if path is None:
        raise FileNotFoundError(f"solution file for {name!r} not found locally")
    return parse_solution(path.read_bytes(), name=name)


def load_entry(name: str, data_dir: str | Path | None = None) -> QaplibEntry:
    """Load an instance together with its parsed name and known bound."""
    category, size, _variant = parse_name(name)
    inst = load_instance(name, data_dir)
    if inst.n != size:
        raise ValidationError(
            f"{name}: parsed size n={inst.n} contradicts the name (expected {size})"
        )
    bound = _KNOWN_BOUNDS.get(name.lower())
    return QaplibEntry(
        name=name, category=category, instance=inst,
        upper_bound=float(bound) if bound is not None else None,
    )


# ---------------------------------------------------------------------------
# Fetch.
# ---------------------------------------------------------------------------


def fetch(
    name: str,
    data_dir: str | Path | None = None,
    base_url: str | None = None,
    timeout: float = 30.0,
) -> list[Path]:
    """Download ``<name>.dat`` (and ``.sln``) into the data directory.

    The base URL is resolved from the argument, the ``SAWT_QAPLIB_URL``
    environment variable, then the default mirror.  Files are expected at
    ``<base>/data.d/<name>.dat`` and ``<base>/soln.d/<name>.sln``
    (``file://`` URLs work, which is how tests exercise this offline).
    Downloads are parse-validated before being written; a failed or
    malformed solution download is skipped, not an error (not every
    instance has a published ``.sln``).

    Returns the list of written paths.
    """
    parse_name(name)  # validate early
    base = (base_url or os.environ.get("SAWT_QAPLIB_URL") or DEFAULT_BASE_URL).rstrip("/")
    dest = Path(data_dir) if data_dir is not None else default_data_dir()
    dest.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    # Imported on first use: urllib.request loads ssl and http.client, which
    # no other command needs.
    import urllib.request

    def grab(url: str) -> bytes:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.read()

    dat = grab(f"{base}/data.d/{name}.dat")
    parse_qaplib(dat, name=name)  # validate before committing to disk
    dat_path = dest / f"{name}.dat"
    dat_path.write_bytes(dat)
    written.append(dat_path)
    try:
        sln = grab(f"{base}/soln.d/{name}.sln")
        parse_solution(sln, name=name)
    except Exception:
        return written
    sln_path = dest / f"{name}.sln"
    sln_path.write_bytes(sln)
    written.append(sln_path)
    return written
