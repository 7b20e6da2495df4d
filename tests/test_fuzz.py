"""Property tests at the input boundary: generated config text and
generated dataset bytes end in a parsed value or a one-line error, never in
another exception. Both run in this process and start no subprocess."""

import contextlib
import io
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from volmin import cli, config

KEYS = [f"{section}.{key}" for section, keys in config.SCHEMA.items() for key in keys]

# The rules that span keys name the file but no line.
CROSS_KEY = re.compile(
    r"fuzz\.cfg: (data\.generator = csv requires data\.path"
    r"|noise\.kind = custom requires noise\.matrix_path"
    r"|data\.cap must exceed 1/data\.classes = 1/\d+ for the simplex generator, got .*)$"
)

value = st.one_of(
    st.sampled_from(
        ["0", "1", "-1", "2", "3", "0.5", "1.0", "100", "1e-9", "1e400", "nan", "-inf",
         "", "true", "false", "simplex", "gaussian", "csv", "custom", "pair",
         "volmin, anchor-max", "anchor-percentile,", "30:10, 60:2", "1:0", "5:-2", ":",
         "4,4,4", "8, 0", "0, 0", "3,", " , ", "0x10", "1_000"]
    ),
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
assignment = st.builds("{} = {}".format, st.sampled_from(KEYS), value)
junk = st.one_of(
    st.sampled_from(["# comment", "", "   ", "data.classes", "=", "data = 3", ". = 1",
                     "model.hidden = 3", "data.bogus = 1", "data.classes == 3"]),
    st.text(max_size=20),
)
document = st.lists(st.one_of(assignment, assignment, junk), max_size=12).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(document)
def test_config_text_parses_or_names_the_line(text):
    try:
        cfg = config.parse_config(text, source="fuzz.cfg")
    except config.ConfigError as exc:
        message = str(exc)
        located = re.match(r"fuzz\.cfg:(\d+): ", message)
        if located is None:
            assert CROSS_KEY.match(message), message
            return
        # Lines end at LF, CRLF or CR only, as parse_config counts them.
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        line = lines[int(located.group(1)) - 1].strip()
        assert line and not line.startswith("#")
        bad_value = re.match(r"fuzz\.cfg:\d+: bad value for (\S+): ", message)
        if bad_value:
            assert line.partition("=")[0].strip() == bad_value.group(1)
    else:
        assert cfg.values.keys() == config.SCHEMA.keys()
        cfg.train_config(seed=cfg.seeds[0])
        cfg.noise_spec()


cell = st.one_of(
    st.sampled_from(
        [b"0", b"1", b"2", b"3", b"-1", b"0.5", b"0.25", b"nan", b"inf", b"", b"1e309",
         b"oops", b"99999999999999999999", b" 1", b"1.5"]
    ),
    st.text("0123456789.-+e", max_size=5).map(str.encode),
)
x_cell = st.sampled_from([b"0", b"0.5", b"0.25", b"1", b"-3.5", b"1e-300"])
good_row = st.builds(
    lambda xs, y: b",".join([*xs, y]),
    st.lists(x_cell, min_size=3, max_size=3), st.sampled_from([b"0", b"1", b"2"]),
)
any_row = st.one_of(good_row, st.lists(cell, max_size=6).map(b",".join))
header = st.one_of(
    st.just(b"x0,x1,x2,y_clean"),
    st.sampled_from([b"x0,x1,x2,y_clean,y_noisy", b"x0,y_clean", b"y_clean", b"",
                     b"p0,p1,p2", b"\xef\xbb\xbfx0,x1,x2,y_clean"]),
)
table = st.builds(
    lambda head, rows, newline: newline.join([head, *rows]),
    header,
    st.one_of(st.lists(good_row, max_size=8), st.lists(any_row, max_size=8)),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)
# A table with one or two arbitrary bytes spliced in: most are not UTF-8.
spliced = st.builds(
    lambda t, at, extra: t[:at] + extra + t[at:],
    table, st.integers(0, 200), st.binary(min_size=1, max_size=2),
)

CORRUPT_CFG = """\
data.classes = 3
data.n = 8
noise.kind = symmetric
noise.rate = 0.2
trials.seeds = 0
output.dir = {out}
"""


@settings(max_examples=200, deadline=None)
@given(st.one_of(table, table, spliced, st.binary(max_size=64)))
def test_corrupt_reads_any_dataset_bytes(tmp_path_factory, blob):
    root = tmp_path_factory.mktemp("corrupt")
    cfg = root / "exp.cfg"
    cfg.write_text(CORRUPT_CFG.format(out=root / "out"), encoding="utf-8")
    (root / "out").mkdir()
    (root / "out" / "dataset.csv").write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["corrupt", "--config", str(cfg)])
    assert code in (0, 2), err.getvalue()
    assert (code == 0) == (root / "out" / "dataset_noisy.csv").exists()
