"""Seeded corpus generators for the three benchmark workloads.

Each generator returns the JSONL lines the program scores plus, per record,
the facts the output checks need: the acc9 variant, or the edit script that
turned the gold proof into the prediction. Only the generated JSONL reaches
the program. The SCONE gold traces come from the program's own
`rgraph.scone.generate_records`, as in acceptance criterion 9; everything
else is built here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import reference as ref

ACC9_COUNTS = (("alchemy", 3334), ("scene", 3333), ("tangrams", 3333))
ACC9_BASE_SEED = 90_000
ACC9_VARIANTS = ("exact", "drift", "truncated", "malformed")

STRESS_TASKS = ("gsm8k", "aqua-rat", "arc", "ar-lsat", "scone-alchemy", "scone-scene", "scone-tangrams")
SOFT_SCORER_TASKS = ("arc", "ar-lsat")
MIN_STEPS, MAX_STEPS = 2, 14
EDIT_KINDS = ("rewire", "swap", "drop", "insert", "drift-light", "drift-heavy")
PLANTED_SEED = 20_230_213  # fixed: the planted family never depends on --seed
PLANTED_COUNT = 12

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
VOCAB = sorted(
    {"".join(random.Random(i).choices(_SYLLABLES, k=3)) for i in range(6000)}
)


@dataclass
class Corpus:
    lines: list[str]
    facts: list[dict]  # one per line: what the checks know about the record
    scone_calls: list[tuple[int, str, int, int]] = field(default_factory=list)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines) + "\n")
        with open(path + ".facts.jsonl", "w", encoding="utf-8") as fh:
            for fact in self.facts:
                fh.write(json.dumps(fact) + "\n")


def _line(record_id: str, task: str, question: str, proof: str, predicted: str) -> str:
    return json.dumps(
        {"id": record_id, "task": task, "question": question, "proof": proof,
         "predicted_proof": predicted},
        ensure_ascii=False,
    )


# --- acc9-mixed ---


def acc9_prediction(proof: str, i: int) -> str:
    """The four prediction variants of acceptance criterion 9, cycling with i."""
    variant = i % 4
    if variant == 0:
        return proof
    if variant == 1:
        return proof.replace(" has ", " holds ", 1)
    if variant == 2:
        return proof[: max(1, len(proof) // 2)]
    return "%%% not a proof %%%"


def acc9_mixed(seed: int, n_records: int = 10_000) -> Corpus:
    """Acceptance criterion 9's corpus; seed 0 reproduces it exactly."""
    from rgraph.scone import generate_records

    total = sum(n for _, n in ACC9_COUNTS)
    corpus = Corpus([], [])
    i = 0
    for offset, (sub, n) in enumerate(ACC9_COUNTS):
        n = n * n_records // total if n_records != total else n
        base = ACC9_BASE_SEED + seed * 30_000 + offset * 10_000
        corpus.scone_calls.append((base, sub, n, 5))
        for record in generate_records(base, sub, n):
            obj = record.to_json()
            obj["predicted_proof"] = acc9_prediction(obj["proof"], i)
            corpus.lines.append(json.dumps(obj, ensure_ascii=False))
            corpus.facts.append({"id": obj["id"], "variant": ACC9_VARIANTS[i % 4]})
            i += 1
    return corpus


# --- gold graphs for the edited workloads ---


class _Words:
    """Draws words without repetition, so distinct texts of one record share none."""

    def __init__(self, rng: random.Random):
        self.pool = rng.sample(VOCAB, 400)

    def take(self, n: int) -> list[str]:
        out, self.pool = self.pool[:n], self.pool[n:]
        return out


def _wire(rng: random.Random, n_premises: int, k: int) -> list[set[int]]:
    """Premise sets for k steps; steps may use any premise or earlier step."""
    wiring = []
    for j in range(k):
        first_step = n_premises + 1
        pool = list(range(1, n_premises + 1 + j))
        chosen = set(rng.sample(pool, min(len(pool), rng.randint(1, 3))))
        if j and rng.random() < 0.5:
            chosen.add(first_step + j - 1)
        wiring.append(chosen)
    return wiring


def _soft_gold(rng: random.Random, words: _Words, task: str, k: int) -> tuple[list[str], list]:
    n_options = 4 if task == "arc" else 5
    tlus = [" ".join(words.take(rng.randint(5, 7))) + "." for _ in range(rng.randint(2, 4))]
    tlus.append("which " + " ".join(words.take(4)) + "?")
    letters = "ABCDE"[:n_options]
    tlus += [f"{c}) " + " ".join(words.take(2)) for c in letters]
    steps = [
        (premises, " ".join(words.take(rng.randint(6, 9))))
        for premises in _wire(rng, len(tlus), k)
    ]
    steps.append(({len(tlus) + k}, f"The answer is {rng.choice(letters)})"))
    return tlus, steps


def _math_gold(rng: random.Random, words: _Words, task: str, k: int) -> tuple[list[str], list]:
    used: set[int] = set()

    def fresh(lo: int, hi: int) -> int:
        while True:
            v = rng.randint(lo, hi)
            if v not in used:
                used.add(v)
                return v

    values = {}
    tlus = []
    for _ in range(rng.randint(2, 4)):
        v = fresh(10, 999)
        tlus.append(f"the {words.take(1)[0]} crate holds {v} items.")
        values[len(tlus)] = v
    tlus.append(f"how many {words.take(1)[0]} items are there in all?")
    question = len(tlus)
    if task == "aqua-rat":
        tlus += [f"{c}) {fresh(10, 99_999)}" for c in "ABCDE"]
    steps = []
    for j in range(k):
        step_id = len(tlus) + 1 + j
        a, b = rng.sample(sorted(values), 2)
        total = values[a] + values[b]
        while total in used:
            total += 1
        used.add(total)
        premises = {a, b} | ({question} if rng.random() < 0.3 else set())
        steps.append((premises, f"so {words.take(1)[0]} counts {values[a]} + {values[b]} = {total}"))
        values[step_id] = total
    last = len(tlus) + k
    payload = f"{rng.choice('ABCDE')})" if task == "aqua-rat" else str(values[last])
    steps.append(({last}, f"The answer is {payload}"))
    return tlus, steps


def _scone_gold(seed: int, task: str, k: int, calls: list) -> tuple[list[str], list]:
    from rgraph.scone import generate_records

    sub = task.split("-", 1)[1]
    for attempt in range(10_000):
        n_actions = max(1, (k + 1) // 2 + attempt % 3)
        record_seed = seed * 1_000 + attempt
        obj = generate_records(record_seed, sub, 1, n_actions)[0].to_json()
        calls.append((record_seed, sub, 1, n_actions))
        graph = ref.parse_graph(task, obj["question"], obj["proof"])
        if len(graph.steps) == k:
            return list(graph.premises), [(set(p), t) for p, t in graph.steps]
    raise RuntimeError(f"no {task} trace with {k} steps")


# --- edit scripts ---


@dataclass
class _Item:
    uid: int
    src: int | None  # gold node id this step came from; None when inserted
    premises: set  # premise ids (ints) and ("s", uid) references to steps
    text: str


class _Editor:
    def __init__(self, rng: random.Random, words: _Words, task: str, tlus: list[str], gold_steps: list):
        self.rng, self.words, self.task, self.n_premises = rng, words, task, len(tlus)
        self.gold = ref.Graph(task, tuple(tlus), tuple((frozenset(p), t) for p, t in gold_steps))
        self.answer = ref.answer(self.gold)
        self.has_answer_node = ref.answer_node(self.gold) is not None
        self.items = []
        for k, (premises, text) in enumerate(gold_steps):
            uid = self.n_premises + 1 + k
            refs = {p if p <= self.n_premises else ("s", p) for p in premises}
            self.items.append(_Item(uid, uid, refs, text))
        self.next_uid = 100_000

    def editable(self) -> list[int]:
        """Positions of steps an edit may touch (never the answer step)."""
        n = len(self.items) - (1 if self.has_answer_node else 0)
        return list(range(n))

    def pool(self, pos: int) -> list:
        return list(range(1, self.n_premises + 1)) + [("s", it.uid) for it in self.items[:pos]]

    def apply(self, kind: str) -> bool:
        items = self.items
        pos_all = self.editable()
        rng = self.rng
        if kind == "rewire":
            pos = rng.choice(pos_all)
            item = items[pos]
            options = [r for r in self.pool(pos) if r not in item.premises]
            if not options:
                return False
            if len(item.premises) > 1 and rng.random() < 0.5:
                item.premises.discard(rng.choice(sorted(item.premises, key=str)))
            else:
                item.premises.add(rng.choice(options))
            return True
        if kind == "swap":
            pairs = [
                i for i in pos_all[:-1]
                if ("s", items[i].uid) not in items[i + 1].premises
            ]
            if not pairs:
                return False
            i = rng.choice(pairs)
            items[i], items[i + 1] = items[i + 1], items[i]
            return True
        if kind == "drop":
            sources = [i for i in pos_all if items[i].src is not None]
            if len(pos_all) <= MIN_STEPS or not sources:
                return False
            item = items.pop(rng.choice(sources))
            for other in items:
                if ("s", item.uid) in other.premises:
                    other.premises.discard(("s", item.uid))
                    other.premises |= item.premises
            return True
        if kind == "insert":
            if len(pos_all) >= MAX_STEPS:
                return False
            pos = rng.randint(0, len(pos_all))
            pool = self.pool(pos)
            premises = set(rng.sample(pool, min(len(pool), rng.randint(1, 2))))
            items.insert(pos, _Item(self.next_uid, None, premises, self._fresh_text()))
            self.next_uid += 1
            return True
        sources = [i for i in pos_all if items[i].src is not None]
        if not sources:
            return False
        item = items[rng.choice(sources)]
        item.text = self._drift(item.text, heavy=kind == "drift-heavy")
        return True

    def _fresh_text(self) -> str:
        if self.task in ref.SCONE_TASKS:
            return "look again at " + " ".join(self.words.take(2))
        if self.task in ref.MATH_TASKS:
            a, b = self.rng.randint(100_000, 199_999), self.rng.randint(100_000, 199_999)
            return f"also {a} + {b} = {a + b}"
        return " ".join(self.words.take(self.rng.randint(6, 9)))

    def _drift(self, text: str, heavy: bool) -> str:
        if self.task in ref.SCONE_TASKS:
            return text + (" " + self.words.take(1)[0] if heavy else " indeed")
        if self.task in ref.MATH_TASKS:
            words = text.split()
            if heavy:
                words[-1] = str(self.rng.randint(200_000, 299_999))
            else:
                words[0] = "thus"
            return " ".join(words)
        words = text.split()
        n = len(words) if heavy else len(words) // 3
        for k in self.rng.sample(range(len(words)), n):
            words[k] = self.words.take(1)[0]
        return " ".join(words)

    def render(self) -> tuple[list, dict[int, int]]:
        """Pred steps as (premise ids, text) and the pred-to-gold step pairs."""
        ids = {it.uid: self.n_premises + 1 + k for k, it in enumerate(self.items)}
        steps = [
            ({r if isinstance(r, int) else ids[r[1]] for r in it.premises}, it.text)
            for it in self.items
        ]
        answer_uid = self.items[-1].uid if self.has_answer_node else None
        pairs = {
            ids[it.uid]: it.src for it in self.items
            if it.src is not None and it.uid != answer_uid
        }
        return steps, pairs

    def keeps_answer(self) -> bool:
        steps, _ = self.render()
        pred = ref.Graph(self.task, self.gold.premises, tuple((frozenset(p), t) for p, t in steps))
        return ref.answer(pred) == self.answer


def _edited_record(seed: int, i: int, task: str, calls: list) -> tuple[str, dict]:
    rng = random.Random(f"{seed}:{i}")
    words = _Words(rng)
    k = MIN_STEPS + (i // 7) % (MAX_STEPS - MIN_STEPS + 1)
    if task in ref.SCONE_TASKS:
        tlus, gold_steps = _scone_gold(rng.randint(0, 10**9), task, k, calls)
    elif task in ref.MATH_TASKS:
        tlus, gold_steps = _math_gold(rng, words, task, k)
    else:
        tlus, gold_steps = _soft_gold(rng, words, task, k)
    editor = _Editor(rng, words, task, tlus, gold_steps)
    ops = []
    for j in range(1 + i % 4):
        for shift in range(len(EDIT_KINDS)):
            kind = EDIT_KINDS[(i + 2 * j + shift) % len(EDIT_KINDS)]
            saved = [_Item(it.uid, it.src, set(it.premises), it.text) for it in editor.items]
            if editor.apply(kind) and editor.keeps_answer():
                ops.append(kind)
                break
            editor.items = saved
    pred_steps, pairs = editor.render()
    record_id = f"{task}-{seed}-{i}"
    line = _line(
        record_id, task, ref.serialize_question(tlus),
        ref.serialize_proof(len(tlus), gold_steps), ref.serialize_proof(len(tlus), pred_steps),
    )
    return line, {"id": record_id, "kind": "edited", "ops": ops, "pairs": pairs}


def _planted_record(j: int) -> tuple[str, dict]:
    """Gold `(1)->(a): x; (1)->(b): y`, predicted `(1)->(a): x y; (1)->(b): x`.

    A zero-cost mapping exists (a->b, b->a) but the greedy lowest-id
    alignment takes a->a first and then finds no partner for b.
    """
    rng = random.Random(PLANTED_SEED + j)
    words = _Words(rng)
    x, y = ("red apple", "green pear") if j == 0 else (" ".join(words.take(2)), " ".join(words.take(2)))
    tlus = [" ".join(words.take(6)) + ".", "which " + " ".join(words.take(3)) + "?"]
    tlus += [f"{c}) " + " ".join(words.take(2)) for c in "ABCD"]
    n = len(tlus)
    letter = rng.choice("ABCD")
    tail = ({n + 1, n + 2}, f"The answer is {letter})")
    gold = [({1}, x), ({1}, y), tail]
    pred = [({1}, f"{x} {y}"), ({1}, x), tail]
    record_id = f"planted-arc-{j}"
    line = _line(
        record_id, "arc", ref.serialize_question(tlus),
        ref.serialize_proof(n, gold), ref.serialize_proof(n, pred),
    )
    return line, {"id": record_id, "kind": "planted", "ops": ["planted"], "pairs": {n + 1: n + 1, n + 2: n + 2}}


def edited(seed: int, tasks: tuple[str, ...], n_records: int, planted: int = 0) -> Corpus:
    corpus = Corpus([], [])
    for i in range(n_records):
        line, fact = _edited_record(seed, i, tasks[i % len(tasks)], corpus.scone_calls)
        corpus.lines.append(line)
        corpus.facts.append(fact)
    for j in range(planted):
        line, fact = _planted_record(j)
        corpus.lines.append(line)
        corpus.facts.append(fact)
    return corpus


def ged_stress(seed: int, n_records: int) -> Corpus:
    return edited(seed, STRESS_TASKS, n_records, planted=PLANTED_COUNT)


def soft_scorer(seed: int, n_records: int) -> Corpus:
    return edited(seed, SOFT_SCORER_TASKS, n_records)


def describe(corpus: Corpus) -> dict:
    """Make-up of a corpus: task mix, editable steps per side, variants and edits."""
    from collections import Counter

    tasks, gold_steps, pred_steps, variants, ops, edits = (Counter() for _ in range(6))
    for line, fact in zip(corpus.lines, corpus.facts):
        obj = json.loads(line)
        tasks[obj["task"]] += 1
        gold = ref.reduce(ref.parse_graph(obj["task"], obj["question"], obj["proof"]))
        gold_steps[len(gold.editable)] += 1
        if "variant" in fact:
            variants[fact["variant"]] += 1
            continue
        pred = ref.reduce(ref.parse_graph(obj["task"], obj["question"], obj["predicted_proof"]))
        pred_steps[len(pred.editable)] += 1
        ops.update(fact["ops"])
        edits[len(fact["ops"])] += 1
    out = {
        "records": len(corpus.lines),
        "tasks": dict(sorted(tasks.items())),
        "gold_editable_steps": dict(sorted(gold_steps.items())),
        "planted": sum(1 for f in corpus.facts if f.get("kind") == "planted"),
    }
    if variants:
        out["variants"] = dict(variants)
    else:
        out["pred_editable_steps"] = dict(sorted(pred_steps.items()))
        out["edit_kinds"] = dict(sorted(ops.items()))
        out["edits_per_record"] = dict(sorted(edits.items()))
    return out

