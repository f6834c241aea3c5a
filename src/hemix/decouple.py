"""Expression decoupling: prompt assembly, response grammar, service client.

A decoupling response is a count K on the first line followed by exactly K
numbered phrase lines:

    K
    1.<phrase>
    2. <phrase>
    ...

K = 0 stands alone and means "no target". Both the bare "1." and the spaced
"1. " ordinal forms are accepted; phrases are trimmed of surrounding
whitespace. Anything else is a ParseError carrying the offending line number.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field

GENERAL_INSTRUCTION = (
    "Task Explanation: You need to process an image and a referring expression. "
    "The image may contain zero, one, or multiple target objects corresponding to "
    'the referring expression. Analyze the image to determine whether the target exists. '
    'If the target does not exist or the referring expression is empty, output a single '
    'number "0". If the target exists, output the number of targets and generate a unique '
    "referring expression for each target. The referring expressions must describe distinct "
    "targets unambiguously using attributes like color, position, size, etc."
)

OUTPUT_CONSTRAINTS = (
    "You should provide a number indicating how many targets exist in the image, "
    "and then describe each target with a short, distinct phrase. Prefix each phrase "
    "with its ordinal number. The number of targets is extremely important — please "
    "check carefully. The phrases must be accurate and distinct."
)

IN_CONTEXT_EXAMPLES = (
    'For example, if the referring expression is "3 people", you should output: '
    '"3\\n1. person ...\\n2. person ...\\n3. person ..." '
    'The word "and" is generally used between two target items.'
)

QUERY_TEMPLATE = "The referring expression is: {}"


@dataclass(frozen=True)
class PromptParts:
    general: str
    constraints: str
    examples: str | None
    query: str

    def __post_init__(self):
        if not self.general or not self.constraints or not self.query:
            raise ValueError("general, constraints, and query parts must be nonempty")

    def user_message(self) -> str:
        parts = [self.constraints]
        if self.examples is not None:
            parts.append(self.examples)
        parts.append(self.query)
        return "\n".join(parts)


@dataclass(frozen=True)
class DecoupleResult:
    count: int
    phrases: tuple
    raw: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "phrases", tuple(self.phrases))
        if self.count != len(self.phrases):
            raise ValueError(f"count {self.count} does not match {len(self.phrases)} phrases")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        for p in self.phrases:
            if not p or p != p.strip() or "\n" in p:
                raise ValueError(f"phrases must be nonempty, trimmed, single-line; got {p!r}")

    def to_dict(self) -> dict:
        return {"count": self.count, "phrases": list(self.phrases), "raw": self.raw}


class ParseError(ValueError):
    """Malformed decoupling response; carries the 1-based line number."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class DecoupleError(RuntimeError):
    """Service-level failure; keeps the last raw response for audit."""

    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


def build_prompt(expression: str, include_examples: bool = True) -> PromptParts:
    """Assemble the four prompt parts with the expression interpolated.

    An empty expression is legal; the protocol instructs the model to answer
    "0" for it. ``include_examples=False`` drops the in-context examples part
    (the ablation variant).
    """
    return PromptParts(
        general=GENERAL_INSTRUCTION,
        constraints=OUTPUT_CONSTRAINTS,
        examples=IN_CONTEXT_EXAMPLES if include_examples else None,
        query=QUERY_TEMPLATE.format(expression),
    )


_ORDINAL_LINE = re.compile(r"^(\d+)\.\s?(.*)$")


def parse_response(raw: str) -> DecoupleResult:
    """Parse a raw response against the count-plus-numbered-phrases grammar."""
    if not raw:
        raise ParseError(1, "empty response")
    lines = raw.splitlines()
    numbered = [(i + 1, line.strip()) for i, line in enumerate(lines)]
    content = [(n, line) for n, line in numbered if line]
    if not content:
        raise ParseError(1, "response contains no content")

    first_no, first = content[0]
    if not re.fullmatch(r"\d+", first):
        raise ParseError(first_no, f"expected a nonnegative integer count, got {first!r}")
    count = int(first)

    phrases = []
    for expected, (line_no, line) in enumerate(content[1 : count + 1], start=1):
        m = _ORDINAL_LINE.match(line)
        if m is None:
            raise ParseError(line_no, f"expected an ordinal phrase line, got {line!r}")
        ordinal = int(m.group(1))
        if ordinal != expected:
            raise ParseError(line_no, f"expected ordinal {expected}, got {ordinal}")
        phrase = m.group(2).strip()
        if not phrase:
            raise ParseError(line_no, "phrase is empty")
        phrases.append(phrase)

    if len(phrases) != count:
        raise ParseError(
            content[-1][0], f"count says {count} phrases but only {len(phrases)} given"
        )
    extra = content[count + 1 :]
    if extra:
        raise ParseError(extra[0][0], f"count says {count} phrases but more lines follow")
    return DecoupleResult(count=count, phrases=tuple(phrases), raw=raw)


def render(result: DecoupleResult) -> str:
    """Canonical text form; parse_response(render(r)) == r for any valid r."""
    if result.count == 0:
        return "0"
    return "\n".join([str(result.count)] + [f"{i}. {p}" for i, p in enumerate(result.phrases, 1)])


_COUNT_WORDS = {
    "two": 2, "three": 3, "four": 4, "five": 5,
    "six": 6, "seven": 7, "eight": 8, "nine": 9, "ten": 10,
}
# The most targets a leading count may expand to: the expansion builds one
# phrase string per target, so a record's count bounds its memory.
_MAX_COUNT = 100
_ORDINAL_WORDS = [
    "first", "second", "third", "fourth", "fifth",
    "sixth", "seventh", "eighth", "ninth", "tenth",
]


def _ordinal_word(i: int) -> str:
    return _ORDINAL_WORDS[i - 1] if i <= len(_ORDINAL_WORDS) else f"{i}th"


def rule_based_decompose(expression: str) -> DecoupleResult:
    """Offline fallback decomposer.

    Splits on the conjunction " and "; a leading count with a plural head
    ("three glasses", or "3 glasses" in ASCII digits) expands to
    ordinal-indexed copies, and a count above _MAX_COUNT raises ValueError.
    Without vision it cannot judge target existence, so for any nonempty
    expression it answers at least 1. The one exception is an empty
    expression, which the protocol itself defines as the no-target answer.
    """
    text = " ".join(expression.split())
    raw = f"[rule-based] {text}"
    if not text:
        return DecoupleResult(count=0, phrases=(), raw=raw)
    if " and " in text:
        parts = [p.strip() for p in text.split(" and ") if p.strip()]
        if len(parts) > 1:
            return DecoupleResult(count=len(parts), phrases=tuple(parts), raw=raw)
    tokens = text.split()
    if len(tokens) >= 2:
        head = tokens[0].lower()
        count = int(head) if head.isascii() and head.isdigit() else _COUNT_WORDS.get(head)
        rest = " ".join(tokens[1:])
        plural_head = rest.lower().endswith("s") and not rest.lower().endswith("ss")
        if count and count > 1 and plural_head:
            if count > _MAX_COUNT:
                raise ValueError(f"count {count} is above the limit of {_MAX_COUNT} targets")
            phrases = tuple(f"{_ordinal_word(i)} {rest}" for i in range(1, count + 1))
            return DecoupleResult(count=count, phrases=phrases, raw=raw)
    return DecoupleResult(count=1, phrases=(text,), raw=raw)


@dataclass(frozen=True)
class VlmConfig:
    endpoint: str
    api_key: str | None = None
    timeout_s: float = 30.0
    retries: int = 2

    def __post_init__(self):
        if not 0.0 < self.timeout_s < math.inf:
            raise ValueError(f"timeout_s must be finite and positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be at least 0, got {self.retries}")

    @classmethod
    def from_env(cls, timeout_s: float = 30.0, retries: int = 2) -> "VlmConfig":
        endpoint = os.environ.get("VLM_ENDPOINT")
        if not endpoint:
            raise DecoupleError("VLM_ENDPOINT is not set; use the offline mode instead")
        return cls(endpoint=endpoint, api_key=os.environ.get("VLM_API_KEY"),
                   timeout_s=timeout_s, retries=retries)


def decouple_via_service(
    expression: str,
    image_b64: str | None,
    config: VlmConfig,
    include_examples: bool = True,
) -> DecoupleResult:
    """One prompt round-trip against the configured service.

    A malformed response is retried up to ``config.retries`` extra times; the
    final failure (transport or parse) raises DecoupleError with the last raw
    text attached.
    """
    # Imported here, on the first call: offline runs never load the HTTP and SSL stack.
    import http.client
    import urllib.error
    import urllib.request

    prompt = build_prompt(expression, include_examples)
    payload = {"system": prompt.general, "user": prompt.user_message()}
    if image_b64 is not None:
        payload["image_b64"] = image_b64
    headers = {"Content-Type": "application/json"}
    if config.api_key:
        headers["Authorization"] = f"Bearer {config.api_key}"

    raw = None
    last_err: Exception | None = None
    data = json.dumps(payload).encode()
    for _ in range(config.retries + 1):
        try:
            # A bad URL raises ValueError, an HTTP error status an OSError (HTTPError).
            request = urllib.request.Request(config.endpoint, data=data, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=config.timeout_s) as resp:
                body = json.loads(resp.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # an HTTPError holds the open response
            raise DecoupleError(f"transport failure talking to {config.endpoint}: {exc}", raw=None) from exc
        if not isinstance(body, dict):
            raise DecoupleError("service response is not a JSON object", raw=json.dumps(body))
        raw = body.get("text")
        if not isinstance(raw, str):
            raise DecoupleError("service response lacks a 'text' field", raw=str(raw))
        try:
            return parse_response(raw)
        except ParseError as exc:
            last_err = exc
    raise DecoupleError(
        f"response stayed malformed after {config.retries + 1} attempts: {last_err}", raw=raw
    )
