import base64
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from hemix import cli, jsonl
from hemix import decouple as D

DATA = Path(__file__).parent / "data"

NO_TARGET = "0"
TWO_GUYS = "2\n1.a guy in green\n2.a rightmost guy"
THREE_GLASSES = (
    "3\n1.first glass is on the left\n2.second glass is in the middle"
    "\n3. third glass is on the right side"
)


class TestParseResponse:
    def test_no_target_transcript(self):
        assert D.parse_response(NO_TARGET) == D.DecoupleResult(0, ())

    def test_two_phrase_transcript(self):
        r = D.parse_response(TWO_GUYS)
        assert r.count == 2
        assert r.phrases == ("a guy in green", "a rightmost guy")

    def test_three_glasses_transcript(self):
        r = D.parse_response(THREE_GLASSES)
        assert r.count == 3
        assert r.phrases[2] == "third glass is on the right side"

    def test_both_ordinal_spacings_accepted(self):
        r = D.parse_response("2\n1.tight\n2. spaced")
        assert r.phrases == ("tight", "spaced")

    def test_count_mismatch(self):
        with pytest.raises(D.ParseError) as exc:
            D.parse_response("2\n1. person")
        assert exc.value.line_number == 2

    def test_extra_lines_after_count(self):
        with pytest.raises(D.ParseError):
            D.parse_response("1\n1. person\n2. another")

    def test_ordinal_gap(self):
        with pytest.raises(D.ParseError) as exc:
            D.parse_response("2\n1. a\n3. b")
        assert "ordinal" in exc.value.reason

    def test_ordinal_duplicate(self):
        with pytest.raises(D.ParseError):
            D.parse_response("2\n1. a\n1. b")

    def test_malformed_count(self):
        for raw in ("two\n1. a", "-1", "3 people", ""):
            with pytest.raises(D.ParseError):
                D.parse_response(raw)

    def test_zero_with_trailing_content_rejected(self):
        with pytest.raises(D.ParseError):
            D.parse_response("0\n1. something")

    def test_phrases_trimmed(self):
        r = D.parse_response("1\n1.   padded phrase   ")
        assert r.phrases == ("padded phrase",)

    def test_empty_phrase(self):
        with pytest.raises(D.ParseError, match="^line 2: phrase is empty$") as exc:
            D.parse_response("1\n1.")
        assert exc.value.line_number == 2

    def test_a_count_too_long_for_int_names_its_line(self):
        # 5000 digits are past the interpreter's int() limit.
        with pytest.raises(D.ParseError, match="^line 1: count says 1{5000} phrases but only 0 given$") as exc:
            D.parse_response("1" * 5000)
        assert exc.value.line_number == 1

    def test_an_ordinal_too_long_for_int_names_its_line(self):
        with pytest.raises(D.ParseError, match="^line 3: expected ordinal 2, got 2{5000}$") as exc:
            D.parse_response("2\n1. a\n" + "2" * 5000 + ". b")
        assert exc.value.line_number == 3
        assert D.parse_response("1\n" + "0" * 5000 + "1. a").phrases == ("a",)

    @pytest.mark.parametrize("raw", ["\u0663\n1. a\n2. b\n3. c", "1\n\u0661. a"])
    def test_counts_and_ordinals_are_ascii_digits_only(self, raw):
        # An Arabic-Indic three, then an Arabic-Indic one.
        with pytest.raises(D.ParseError, match="^line 1: expected a nonnegative integer count|"
                                               "^line 2: expected an ordinal phrase line"):
            D.parse_response(raw)


class TestRenderRoundtrip:
    def test_examples(self):
        for result in (
            D.DecoupleResult(0, ()),
            D.DecoupleResult(1, ("left person",)),
            D.DecoupleResult(2, ("a guy in green", "a rightmost guy")),
        ):
            assert D.parse_response(D.render(result)) == result

    def test_fuzzed_roundtrip(self):
        rng = np.random.default_rng(42)
        words = ["left", "right", "person", "glass", "dog", "red", "2nd", "tall"]
        for _ in range(300):
            k = int(rng.integers(0, 6))
            phrases = tuple(
                " ".join(rng.choice(words, size=rng.integers(1, 5)))
                for _ in range(k)
            )
            result = D.DecoupleResult(k, phrases)
            assert D.parse_response(D.render(result)) == result

    def test_every_valid_result_round_trips(self):
        # Phrases drawn from characters that trim, split lines, look like digits or end an ordinal.
        rng = np.random.default_rng(7)
        chars = list("ab1.  \t\r\n\x0b\x1c\x85\u2028\u0663")
        valid = 0
        for _ in range(2000):
            k = int(rng.integers(0, 4))
            phrases = tuple("".join(rng.choice(chars, size=rng.integers(1, 6))) for _ in range(k))
            try:
                result = D.DecoupleResult(k, phrases)
            except ValueError:
                continue
            valid += 1
            assert D.parse_response(D.render(result)) == result
        assert valid > 500

    def test_invariant_count_matches_phrases(self):
        with pytest.raises(ValueError):
            D.DecoupleResult(2, ("only one",))

    # Every separator str.splitlines splits on, the rule parse_response splits a response by.
    @pytest.mark.parametrize("sep", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"], ids=repr)
    def test_a_phrase_is_one_line(self, sep):
        assert f"a{sep}b".splitlines() == ["a", "b"]
        with pytest.raises(ValueError, match="^phrases must be nonempty, trimmed, single-line; got "):
            D.DecoupleResult(1, (f"a{sep}b",))


class TestRuleBasedDecompose:
    def test_conjunction_split(self):
        r = D.rule_based_decompose("a guy in green and a rightmost guy")
        assert (r.count, r.phrases) == (2, ("a guy in green", "a rightmost guy"))

    @pytest.mark.parametrize("expr, phrases", [
        ("a  and\tb", ("a", "b")),
        ("and and and", ("and", "and")),
        ("x and and y", ("x", "and y")),
        (" red cup and\xa0blue cup ", ("red cup", "blue cup")),
    ])
    def test_conjunction_split_after_whitespace_collapse(self, expr, phrases):
        # Whitespace runs, a no-break space included, become one space before the split.
        r = D.rule_based_decompose(expr)
        assert (r.count, r.phrases) == (len(phrases), phrases)

    def test_single_target(self):
        assert D.rule_based_decompose("left person").phrases == ("left person",)

    def test_count_expansion(self):
        r = D.rule_based_decompose("three glasses")
        assert r.count == 3
        assert r.phrases == ("first glasses", "second glasses", "third glasses")

    def test_digit_count(self):
        assert D.rule_based_decompose("2 dogs").count == 2

    def test_singular_head_not_expanded(self):
        assert D.rule_based_decompose("three glass").count == 1

    @pytest.mark.parametrize("expr", ["\u00b2 cats", "\u0663 cats", "\uff13 cats"])
    def test_only_ascii_digits_are_a_count(self, expr):
        # A superscript two, an Arabic-Indic three and a fullwidth three.
        r = D.rule_based_decompose(expr)
        assert (r.count, r.phrases) == (1, (expr,))

    def test_a_count_above_the_limit_fails(self):
        assert D.rule_based_decompose(f"{D._MAX_COUNT} cats").count == D._MAX_COUNT
        for count in (D._MAX_COUNT + 1, 1000):
            with pytest.raises(ValueError, match=f"^count {count} is above the limit of {D._MAX_COUNT} targets$"):
                D.rule_based_decompose(f"{count} cats")
        assert D.rule_based_decompose("10000000000 cat").phrases == ("10000000000 cat",)

    def test_a_count_too_long_for_int_fails_at_the_limit(self):
        # 5000 digits are past the interpreter's int() limit; leading zeros do not count.
        with pytest.raises(ValueError, match=f"^count 1{{5000}} is above the limit of {D._MAX_COUNT} targets$"):
            D.rule_based_decompose("1" * 5000 + " cats")
        with pytest.raises(ValueError, match=f"^count 101 is above the limit of {D._MAX_COUNT} targets$"):
            D.rule_based_decompose("0000101 cats")
        assert D.rule_based_decompose("0" * 5000 + "3 cats").phrases == ("first cats", "second cats", "third cats")
        assert D.rule_based_decompose("0003 cats").count == 3
        assert D.rule_based_decompose("1" * 5000 + " cat").count == 1

    def test_ordinals_past_ten_take_english_suffixes(self):
        got = {i: D._ordinal_word(i) for i in (10, 11, 12, 13, 14, 21, 22, 23, 24, 100, 101, 102, 103, 111, 112, 113)}
        assert got == {10: "tenth", 11: "11th", 12: "12th", 13: "13th", 14: "14th", 21: "21st", 22: "22nd",
                       23: "23rd", 24: "24th", 100: "100th", 101: "101st", 102: "102nd", 103: "103rd",
                       111: "111th", 112: "112th", 113: "113th"}
        assert D.rule_based_decompose("23 cats").phrases[19:] == ("20th cats", "21st cats", "22nd cats", "23rd cats")

    def test_empty_expression_is_no_target(self):
        assert D.rule_based_decompose("  ").count == 0


class TestBuildPrompt:
    def test_query_interpolation(self):
        p = D.build_prompt("three glasses")
        assert p.query == "The referring expression is: three glasses"

    def test_examples_omittable(self):
        assert D.build_prompt("x", include_examples=False).examples is None
        assert D.build_prompt("x").examples is not None

    def test_empty_expression_still_valid(self):
        p = D.build_prompt("")
        assert p.query == "The referring expression is: "

    def test_byte_stable(self):
        assert D.build_prompt("a dog") == D.build_prompt("a dog")

    def test_user_message_order(self):
        msg = D.build_prompt("a dog").user_message()
        assert msg.index("You should provide") < msg.index("For example") < msg.index("The referring expression is")

    @pytest.mark.parametrize("part", ["general", "constraints", "query"])
    def test_empty_part_rejected(self, part):
        parts = {"general": "g", "constraints": "c", "examples": None, "query": "q", part: ""}
        with pytest.raises(ValueError, match="^general, constraints, and query parts must be nonempty$"):
            D.PromptParts(**parts)


class _StubHandler(BaseHTTPRequestHandler):
    responses: list = []
    requests: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).requests.append({"body": body, "auth": self.headers.get("Authorization")})
        text = type(self).responses.pop(0) if type(self).responses else "0"
        # A (status, body bytes) pair is sent verbatim; a string is the "text" field.
        status, payload = text if isinstance(text, tuple) else (200, json.dumps({"text": text}).encode())
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    _StubHandler.responses = []
    _StubHandler.requests = []
    yield f"http://127.0.0.1:{server.server_port}", _StubHandler
    server.shutdown()
    server.server_close()


class TestServiceClient:
    def test_no_target_flow(self, stub_server):
        url, handler = stub_server
        handler.responses = [NO_TARGET]
        cfg = D.VlmConfig(endpoint=url, api_key="secret", retries=2)
        result = D.decouple_via_service("the right boy", None, cfg)
        assert result.count == 0
        req = handler.requests[0]
        assert req["auth"] == "Bearer secret"
        assert req["body"]["system"].startswith("Task Explanation:")
        assert "image_b64" not in req["body"]

    def test_multi_target_flow(self, stub_server):
        url, handler = stub_server
        handler.responses = [THREE_GLASSES]
        result = D.decouple_via_service("three glasses", "aW1n", D.VlmConfig(endpoint=url))
        assert result.count == 3
        assert handler.requests[0]["body"]["image_b64"] == "aW1n"

    def test_retry_then_success(self, stub_server):
        url, handler = stub_server
        handler.responses = ["not a number", TWO_GUYS]
        result = D.decouple_via_service("x", None, D.VlmConfig(endpoint=url, retries=2))
        assert result.count == 2
        assert len(handler.requests) == 2

    def test_a_count_too_long_for_int_is_retried(self, stub_server):
        url, handler = stub_server
        handler.responses = ["1" * 5000] * 3
        with pytest.raises(D.DecoupleError, match="^response stayed malformed after 3 attempts: line 1: "):
            D.decouple_via_service("x", None, D.VlmConfig(endpoint=url, retries=2))
        assert len(handler.requests) == 3

    def test_garbage_exhausts_retries(self, stub_server):
        url, handler = stub_server
        handler.responses = ["???", "???", "???"]
        with pytest.raises(D.DecoupleError) as exc:
            D.decouple_via_service("x", None, D.VlmConfig(endpoint=url, retries=2))
        assert exc.value.raw == "???"
        assert len(handler.requests) == 3

    def test_transport_error(self):
        cfg = D.VlmConfig(endpoint="http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(D.DecoupleError):
            D.decouple_via_service("x", None, cfg)

    @pytest.mark.parametrize("body", [b"[]", b'"x"', b"not json"])
    def test_body_not_a_json_object(self, stub_server, body):
        url, handler = stub_server
        handler.responses = [(200, body)]
        with pytest.raises(D.DecoupleError):
            D.decouple_via_service("x", None, D.VlmConfig(endpoint=url))
        assert len(handler.requests) == 1

    def test_object_without_text(self, stub_server):
        url, handler = stub_server
        handler.responses = [(200, b'{"answer": "1\\n1. a dog"}')]
        with pytest.raises(D.DecoupleError, match="^service response lacks a 'text' field$") as exc:
            D.decouple_via_service("x", None, D.VlmConfig(endpoint=url))
        assert exc.value.raw == "None"
        assert len(handler.requests) == 1

    def test_http_error_status(self, stub_server):
        url, handler = stub_server
        handler.responses = [(500, json.dumps({"text": TWO_GUYS}).encode())]
        with pytest.raises(D.DecoupleError) as exc:
            D.decouple_via_service("x", None, D.VlmConfig(endpoint=url))
        assert "500" in str(exc.value)

    def test_pipeline_keeps_going_after_non_object_reply(self, stub_server, monkeypatch, tmp_path, capsys):
        url, handler = stub_server
        handler.responses = [(200, b"[]"), "0"]
        monkeypatch.setenv("VLM_ENDPOINT", url)
        texts = tmp_path / "texts.jsonl"
        jsonl.write_jsonl(texts, [
            {"sample_id": "s1", "image_id": "img1", "expression": "left person", "features": []},
            {"sample_id": "s3", "image_id": "img1", "expression": "nobody", "features": []},
        ])
        report = tmp_path / "report.json"
        code = cli.main([
            "pipeline", "--anchors", str(DATA / "anchors.jsonl"), "--texts", str(texts),
            "--weights", str(DATA / "weights.json"), "--gt", str(DATA / "gt.jsonl"),
            "--report", str(report),
        ])
        capsys.readouterr()
        assert code == 1
        payload = json.loads(report.read_text())
        assert [f["sample_id"] for f in payload["failures"]] == ["s1"]
        assert payload["n_samples"] == 1

    def test_cli_sends_the_image_file_as_base64(self, stub_server, monkeypatch, tmp_path, capsys):
        url, handler = stub_server
        handler.responses = [THREE_GLASSES]
        monkeypatch.setenv("VLM_ENDPOINT", url)
        image = tmp_path / "image.png"
        image.write_bytes(bytes(range(256)) + b"\x89PNG\r\n")
        code = cli.main(["decouple", "--expr", "three glasses", "--image", str(image)])
        out = capsys.readouterr().out
        assert code == 0
        assert handler.requests[0]["body"]["image_b64"] == base64.b64encode(image.read_bytes()).decode("ascii")
        assert json.loads(out) == D.parse_response(THREE_GLASSES).to_dict()

    def test_cli_no_examples_drops_the_examples_part(self, stub_server, monkeypatch, capsys):
        url, handler = stub_server
        handler.responses = [TWO_GUYS]
        monkeypatch.setenv("VLM_ENDPOINT", url)
        code = cli.main(["decouple", "--expr", "two guys", "--no-examples"])
        out = capsys.readouterr().out
        assert code == 0
        user = handler.requests[0]["body"]["user"]
        assert user == D.build_prompt("two guys", include_examples=False).user_message()
        assert D.IN_CONTEXT_EXAMPLES not in user
        assert json.loads(out) == D.parse_response(TWO_GUYS).to_dict()

    def test_cli_fails_a_missing_image_file_before_any_request(self, stub_server, monkeypatch, tmp_path, capsys):
        url, handler = stub_server
        handler.responses = [THREE_GLASSES]
        monkeypatch.setenv("VLM_ENDPOINT", url)
        missing = tmp_path / "missing.png"
        code = cli.main(["decouple", "--expr", "three glasses", "--image", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        error = captured.err.splitlines()[-1]
        assert error.startswith("error: ") and str(missing) in error
        assert handler.requests == []

    def test_env_config_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("VLM_ENDPOINT", raising=False)
        with pytest.raises(D.DecoupleError):
            D.VlmConfig.from_env()
