"""The wire codec (:mod:`repro.codec`) and the templates that bypass it."""

import json

import pytest
from hypothesis import given, strategies as st

from repro import codec
from repro.codec import MAX_DEPTH, decode, encode, encode_compact
from repro.errors import CodecError

from tests.wire_templates import TEMPLATES, check_template

#: Any JSON value, floats (NaN and infinities too) and non-ASCII text
#: included.
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20)


def nested(depth: int, inner: bytes = b"1") -> bytes:
    """``inner`` inside ``depth`` alternating arrays and objects."""
    for level in range(depth):
        inner = (b"[" + inner + b"]" if level % 2 else
                 b'{"k": ' + inner + b"}")
    return inner


def json_error(data: bytes) -> str:
    """The text UTF-8 decoding or ``json.loads`` raises on ``data``."""
    try:
        json.loads(data.decode("utf-8"))
    except ValueError as error:
        return str(error)
    raise AssertionError(f"json.loads accepted {data!r}")


class TestEncode:
    @given(ANY_JSON)
    def test_encode_is_json_dumps(self, value):
        assert encode(value) == json.dumps(value, sort_keys=True).encode()

    @given(ANY_JSON)
    def test_encode_compact_is_json_dumps(self, value):
        assert encode_compact(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")).encode()

    @given(ANY_JSON)
    def test_pure_python_fallback_is_byte_identical(self, value):
        # Without the C encoder the codec uses JSONEncoder itself.
        fallback = pytest.MonkeyPatch()
        fallback.setattr(codec._json_encoder, "c_make_encoder", None)
        try:
            python_encode = codec._encoder("encode", (", ", ": "), "")
        finally:
            fallback.undo()
        assert python_encode(value) == encode(value)

    def test_an_object_that_failed_once_encodes_later(self):
        # The prebuilt C encoder keeps circular-reference markers; a
        # failed encode must not leave one behind for the same object.
        message = {"blob": [b"not json"]}
        with pytest.raises(TypeError):
            encode(message)
        message["blob"] = [1]
        assert encode(message) == b'{"blob": [1]}'

    def test_circular_reference_is_refused_every_time(self):
        loop: list = []
        loop.append(loop)
        for _ in range(2):
            with pytest.raises(ValueError, match="Circular reference"):
                encode(loop)


class TestDecode:
    @given(ANY_JSON)
    def test_decode_is_json_loads(self, value):
        data = encode(value)
        assert repr(decode(data)) == repr(json.loads(data))

    @pytest.mark.parametrize("data", [
        b"\xff\xfe", b"{op: ping", b'{"a": 1', b"", b"[1, 2,]",
        b'"\xc3"', b"\xef\xbb\xbf{}"],
        ids=["not-utf8", "not-json", "truncated", "empty",
             "trailing-comma", "bad-utf8-in-string", "bom"])
    def test_refusals_keep_json_error_text(self, data):
        with pytest.raises(CodecError) as refused:
            decode(data)
        assert str(refused.value) == json_error(data)
        assert isinstance(refused.value, ValueError)

    @pytest.mark.parametrize("shape", ["[", "{"])
    def test_max_depth_is_accepted_and_one_more_refused(self, shape):
        for depth, accepted in ((MAX_DEPTH, True), (MAX_DEPTH + 1, False)):
            if shape == "[":
                data = b"[" * depth + b"]" * depth
            else:
                data = b'{"a":' * depth + b"1" + b"}" * depth
            if accepted:
                assert decode(data) == json.loads(data)
            else:
                with pytest.raises(CodecError, match="nesting deeper"):
                    decode(data)

    def test_alternating_nesting_counts_both_brackets(self):
        assert decode(nested(MAX_DEPTH)) == json.loads(nested(MAX_DEPTH))
        with pytest.raises(CodecError):
            decode(nested(MAX_DEPTH + 1))

    @pytest.mark.parametrize("text", [
        "[" * 200, "]" * 200 + "[" * 200, '\\"' + "{" * 100,
        "\\\\" + "[" * 50, "é" + "{" * 80])
    def test_brackets_inside_strings_do_not_nest(self, text):
        deep = json.loads(nested(MAX_DEPTH - 1))
        data = encode({"s": text, "deep": deep})
        assert decode(data) == json.loads(data)

    @pytest.mark.parametrize("string", [
        b'"\\\\"', b'"a\\\\\\\\"', b'"\\\\\\""', b'"\\u005c"'],
        ids=["backslash", "two-backslashes", "backslash-quote",
             "unicode-backslash"])
    def test_escapes_before_a_closing_quote_end_the_string(self, string):
        shallow = b"[" + string + b", [[1]]]"
        assert decode(shallow) == json.loads(shallow)
        deep = b"[" * MAX_DEPTH + b"1" + b"]" * MAX_DEPTH
        with pytest.raises(CodecError, match="nesting deeper"):
            decode(b"[" + string + b", " + deep + b"]")

    def test_many_shallow_brackets_are_accepted(self):
        data = encode([[i, {"k": [i]}] for i in range(500)])
        assert decode(data) == json.loads(data)

    def test_unterminated_string_is_refused(self):
        with pytest.raises(CodecError):
            decode(b'["' + b"[" * 100)
        with pytest.raises(CodecError):
            decode(b"[" * (MAX_DEPTH + 1) + b'"')

    def test_a_non_object_is_a_value(self):
        assert decode(b"[1, 2]") == [1, 2]
        assert decode(b'"s"') == "s"


def at_depth(frames: int, fn):
    """``fn()`` called ``frames`` Python frames deeper than here."""
    if frames == 0:
        return fn()
    return at_depth(frames - 1, fn)


def verdict(data: bytes):
    """What :func:`decode` says about ``data``."""
    try:
        return repr(decode(data))
    except CodecError as refused:
        return f"refused: {refused}"


#: Byte fragments that build deep, shallow, broken and string-quoted
#: nesting when joined.
FRAGMENTS = st.sampled_from([
    b"[" * 150, b"{" * 40, b'{"a":' * 30, b"[", b"]", b"{", b"}", b'"',
    b"\\", b'"\\\\"', b'"a"', b":", b",", b"1", b" ", b"\xff"])


@given(st.lists(FRAGMENTS, max_size=30).map(b"".join))
def test_decode_verdict_is_the_same_at_any_stack_depth(data):
    assert verdict(data) == at_depth(800, lambda: verdict(data))


@pytest.mark.parametrize("name", sorted(TEMPLATES))
@given(data=st.data())
def test_templates_write_and_read_what_the_codec_does(name, data):
    """The one property over every wire template (see
    :mod:`tests.wire_templates`)."""
    check_template(name, data.draw(TEMPLATES[name].inputs, label=name))
