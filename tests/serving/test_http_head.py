"""Property tests of the HTTP server's request-head parser.

:func:`repro.serving.http._parse_head` reads bytes straight off the socket,
so whatever a client sends must come back either as a parsed request or as
the typed refusal the handler answers with a status line.  Any other
exception would reach the accept loop and close the connection without one.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serving.http import MAX_HEAD_BYTES, MAX_HEADER_LINES, _BadRequest, _parse_head

_REFUSALS = {400, 414, 431, 501}

_TOKEN_CHARS = "!#$%&'*+-.^_`|~0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
_tokens = st.text(alphabet=_TOKEN_CHARS, min_size=1, max_size=12)
#: Field values as clients send them: words of visible ASCII and Latin-1.
_values = st.lists(
    st.text(
        alphabet=st.characters(min_codepoint=0x21, max_codepoint=0xFF, blacklist_characters="\x7f"),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=3,
).map(" ".join)
#: Request-line and header-line parts, well-formed and not, so that generated
#: heads reach every branch of the parser.
_methods = st.sampled_from(["GET", "POST", "PUT", "get", "", "G\x00T"])
_targets = st.sampled_from(["/", "/healthz", "/tenants/a/predict?n=3&r=1", "", "a b"])
_versions = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.", "http/1.1", ""])
_names = st.sampled_from(
    ["Content-Length", "content-length", "Transfer-Encoding", "X-Request-Id", "", " X", "X\x00"]
)
_separators = st.sampled_from([": ", ":", "", " : "])
_field_values = st.sampled_from(
    ["5", "0", "+5", "5_0", "\xb2", "-1", "", " 5\t", "5, 5", "chunked", "9" * 30]
)
_fields = st.lists(st.tuples(_names, _separators, _field_values), max_size=6)


def _parse_or_refuse(head: bytes):
    """The parse of ``head``, or ``None`` after checking a refusal's status."""
    try:
        return _parse_head(head)
    except _BadRequest as error:
        assert error.status in _REFUSALS, error.status
        return None


def _render(method: str, target: str, fields: list[tuple[str, str]]) -> bytes:
    lines = [f"{method} {target} HTTP/1.1"] + [f"{name}: {value}" for name, value in fields]
    return "\r\n".join(lines).encode("latin-1")


class TestParseHead:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.binary(max_size=200))
    def test_arbitrary_bytes_parse_or_are_refused(self, head):
        _parse_or_refuse(head)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(_methods, _targets, _versions, _fields)
    # Framing a parse must refuse: a non-ASCII digit, two lengths, chunking.
    @example("POST", "/", "HTTP/1.1", [("Content-Length", ": ", "\xb2")])
    @example("POST", "/", "HTTP/1.1", [("Content-Length", ": ", "5"), ("content-length", ":", "0")])
    @example("POST", "/", "HTTP/1.1", [("Transfer-Encoding", ": ", "chunked")])
    def test_assembled_heads_parse_or_are_refused(self, method, target, version, fields):
        lines = [f"{method} {target} {version}"] + ["".join(field) for field in fields]
        parsed = _parse_or_refuse("\r\n".join(lines).encode("latin-1"))
        if parsed is None:
            return
        method, target, headers = parsed
        assert method in ("GET", "POST") and target
        assert headers.get("Transfer-Encoding") is None
        lengths = {
            value.strip(" \t") for name, _, value in fields if name.lower() == "content-length"
        }
        assert len(lengths) <= 1
        length = headers.get("Content-Length")
        assert length is None or (length in lengths and int(length) >= 0)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.sampled_from(["GET", "POST"]),
        _tokens.map(lambda token: "/" + token),
        st.lists(
            st.tuples(_tokens, _values),
            max_size=MAX_HEADER_LINES,
            unique_by=lambda field: field[0].lower(),
        ),
    )
    def test_well_formed_heads_round_trip(self, method, target, fields):
        framing = ("content-length", "transfer-encoding")
        fields = [(name, value) for name, value in fields if name.lower() not in framing]
        parsed_method, parsed_target, headers = _parse_head(_render(method, target, fields))
        assert (parsed_method, parsed_target) == (method, target)
        assert len(headers) == len(fields)
        for name, value in fields:
            assert headers.get(name.swapcase()) == value

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2 * MAX_HEAD_BYTES),
        st.integers(min_value=0, max_value=2 * MAX_HEADER_LINES),
    )
    # A request line of exactly MAX_HEAD_BYTES, and one byte over; exactly
    # MAX_HEADER_LINES header lines, and one over.
    @example(MAX_HEAD_BYTES - len("GET / HTTP/1.1"), 0)
    @example(MAX_HEAD_BYTES - len("GET / HTTP/1.1") + 1, 0)
    @example(0, MAX_HEADER_LINES)
    @example(0, MAX_HEADER_LINES + 1)
    def test_size_limits(self, target_bytes, lines):
        fields = [(f"X-{index}", "v") for index in range(lines)]
        head = _render("GET", "/" + "a" * target_bytes, fields)
        try:
            _parse_head(head)
        except _BadRequest as error:
            request_line = len("GET / HTTP/1.1") + target_bytes
            if request_line > MAX_HEAD_BYTES:
                assert error.status == 414
            else:
                assert error.status == 431
                assert len(head) > MAX_HEAD_BYTES or lines > MAX_HEADER_LINES
        else:
            assert len(head) <= MAX_HEAD_BYTES and lines <= MAX_HEADER_LINES

    def test_repeated_field_keeps_its_first_value(self):
        fields = [("X-A", "1"), ("x-a", "2"), ("Content-Length", "3"), ("content-length", "3")]
        _, _, headers = _parse_head(_render("GET", "/", fields))
        assert headers.get("X-A") == "1" and headers.get("Content-Length") == "3"
