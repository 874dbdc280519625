"""The CactusNet: a trunk of layer blocks that grows branches.

A pretrained network is cut into blocks at its tap points and becomes
the trunk.  Each non-root trunk node carries an applicability predictor
and a pair of thresholds.  Routing descends the tree: at every depth
the input goes to the candidate child with the highest predicted
applicability among those above their lower threshold; if none
qualifies the input is flagged nonobjective-unknown, and during growth
that spawns (or feeds) a branch.  The three-way known / objective-
unknown / nonobjective-unknown verdict is rendered at one configured
decision depth, with strictly-greater comparisons at both thresholds.
"""

import json
import shutil
from dataclasses import asdict, dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

# defined beside the config schema, so that loading a config loads no
# cactus code
from .config import GrowthConfig, Thresholds
from .data.manifest import SubsetLabel
from .errors import ConfigError, DataError, RoutingError
from .fileio import atomic_open, write_json
# perfbench's tracer patches and checks the cactus.forward binding
from .nn import (Network, checkpoint_load, checkpoint_save, forward,  # noqa: F401
                 predict)
from .seeding import derive_seed
from .table import ApplicabilityTable, subset_average


class Verdict(Enum):
    KNOWN = "known"
    OBJECTIVE_UNKNOWN = "objective_unknown"
    NONOBJECTIVE_UNKNOWN = "nonobjective_unknown"


def decide(app: float, thresholds: Thresholds) -> Verdict:
    """The three-way arm: app > tau1 is known, app > tau2 is objective
    unknown, anything else nonobjective unknown.  Exactly one arm fires;
    equality at a threshold falls to the lower arm."""
    if app > thresholds.tau1:
        return Verdict.KNOWN
    if app > thresholds.tau2:
        return Verdict.OBJECTIVE_UNKNOWN
    return Verdict.NONOBJECTIVE_UNKNOWN


def baseline_from_tables(table: ApplicabilityTable, layer: int,
                         final_layer: int):
    """Pick (q, y1, y2) from the subset curves of a measured table.

    q and y1 are the objective-known and objective-unknown subset means
    at ``layer``; y2 is the nonobjective-unknown mean at ``final_layer``.
    """
    curves = subset_average(table)
    keys = [(SubsetLabel.OBJECTIVE_KNOWN, layer),
            (SubsetLabel.OBJECTIVE_UNKNOWN, layer),
            (SubsetLabel.NONOBJECTIVE_UNKNOWN, final_layer)]
    for subset, at_layer in keys:
        if (subset, at_layer) not in curves:
            raise ConfigError(
                f"table has no {subset.value} entries at layer {at_layer}")
    return tuple(curves[key] for key in keys)


# ---------------------------------------------------------------------
# Tree structure
# ---------------------------------------------------------------------

@dataclass
class CactusNode:
    node_id: int
    branch_id: int
    block: Network
    predictor: object = None          # callable [n, *tap] -> n apps
    thresholds: Thresholds | None = None
    children: list = field(default_factory=list)
    head: Network | None = None       # leaf classifier
    labels: tuple = ()                # known class ids of the head
    provisional: bool = False
    provisional_label: str | None = None
    seed: int | None = None           # branch init seed, for replay

    @property
    def routable(self) -> bool:
        """Provisional branches have no predictor yet and are reached
        only through growth-time absorption, never by max-App routing."""
        return self.predictor is not None and self.thresholds is not None

    @property
    def is_leaf(self) -> bool:
        return not self.children


class CactusTree:
    def __init__(self, root: CactusNode, decision_depth: int):
        self.root = root
        self.decision_depth = decision_depth
        self.nodes = {}
        self._index(root)
        self.next_node_id = max(self.nodes) + 1
        self.next_branch_id = max(n.branch_id for n in self.nodes.values()) + 1
        # per-node growth bookkeeping: below-threshold event counts and
        # the event at which each provisional branch last absorbed
        self.growth_state = {}

    def _index(self, node):
        if node.node_id in self.nodes:
            raise ConfigError(f"duplicate node id {node.node_id}")
        self.nodes[node.node_id] = node
        for child in node.children:
            self._index(child)

    def trunk_chain(self):
        """Trunk nodes root-to-leaf (branch id 0, single child chain)."""
        chain = [self.root]
        while nxt := [c for c in chain[-1].children if c.branch_id == 0]:
            chain.append(nxt[0])
        return chain

    def topology(self) -> dict:
        """Stable description of structure + parameters, for comparison
        and persistence."""
        return _describe(self.root, None, lambda node: {
            "layers": [s.to_dict() for s in node.block.specs],
            "param_digest": _param_digest(node.block, node.head),
            "head_labels": list(node.labels),
        })


# CactusNode fields every description persists: name -> (to JSON, from
# JSON).  None is stored as null and read back as None.
_NODE_FIELDS = {
    "node_id": (int, int), "branch_id": (int, int), "seed": (int, int),
    "provisional": (bool, bool), "provisional_label": (str, str),
    "labels": (list, tuple),
    "thresholds": (asdict, lambda d: Thresholds(**d)),
}


def _or_none(convert, value):
    return None if value is None else convert(value)


def _describe(node, parent, fields):
    """The one node serializer: ``_NODE_FIELDS`` and the parent id, plus
    ``fields(node)``, with children in node-id order."""
    doc = {name: _or_none(save, getattr(node, name))
           for name, (save, _) in _NODE_FIELDS.items()}
    doc.update(parent=parent, **fields(node))
    doc["children"] = [_describe(c, node.node_id, fields)
                       for c in sorted(node.children, key=lambda c: c.node_id)]
    return doc


def _param_digest(block: Network, head: Network | None) -> str:
    import hashlib
    h = hashlib.sha256()
    for p in (*block.params, *(() if head is None else head.params)):
        if p is not None:
            h.update(np.ascontiguousarray(p["W"], dtype="<f4").tobytes())
            h.update(np.ascontiguousarray(p["b"], dtype="<f4").tobytes())
    return h.hexdigest()


def build_tree(net: Network, tap_indices, predictors, thresholds,
               labels, decision_depth: int) -> CactusTree:
    """Cut a trained network into trunk blocks at its tap indices.

    ``predictors`` maps each tap index to a batch callable (activations
    ``[n, *tap]`` in, ``n`` apps out); ``thresholds`` holds at every
    depth.  The residue after the last tap (the classifier head) is
    attached to the deepest trunk node together with its ``labels``.
    """
    taps = sorted(tap_indices)
    if not taps or taps[-1] >= net.layer_count - 1:
        raise ConfigError(f"invalid tap indices {taps}")
    if not 1 <= decision_depth < len(taps):
        raise ConfigError(
            f"decision depth {decision_depth} outside 1..{len(taps) - 1}")

    def block(lo, hi):  # layers [lo, hi] inclusive
        in_shape = net.input_shape if lo == 0 else net.shapes[lo - 1]
        return Network(net.specs[lo:hi + 1], in_shape, net.params[lo:hi + 1])

    nodes = []
    lo = 0
    for depth, tap in enumerate(taps):
        nodes.append(CactusNode(node_id=depth, branch_id=0, block=block(lo, tap),
                                predictor=predictors[tap], thresholds=thresholds))
        lo = tap + 1
    for parent, child in zip(nodes, nodes[1:]):
        parent.children.append(child)
    leaf = nodes[-1]
    leaf.head = block(taps[-1] + 1, net.layer_count - 1)
    leaf.labels = tuple(labels)
    return CactusTree(nodes[0], decision_depth)


# ---------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------

@dataclass
class RouteDecision:
    verdict: Verdict
    label: int | None = None
    path: list = field(default_factory=list)
    apps: list = field(default_factory=list)
    branch_created: int | None = None
    routed_branch: int | None = None
    unrouted: bool = False
    input_index: int | None = None
    provisional_label: str | None = None
    stopped_at: int | None = None      # node where routing found no child

    def to_dict(self):
        return {**vars(self), "verdict": self.verdict.value,
                "path": list(self.path), "apps": [float(a) for a in self.apps]}


def route_step(node: CactusNode, apps) -> np.ndarray:
    """Each row's pick among the node's routable children.

    ``apps`` is ``[rows, candidates]``, one column per routable child in
    ``node.children`` order.  A child qualifies for a row when its App
    strictly exceeds the child's own tau2; the highest qualifying App
    wins, ties to the lowest branch id.  Returns each row's column, or
    -1 where no child qualifies (branch needed).
    """
    candidates = [c for c in node.children if c.routable]
    apps = np.asarray(apps, dtype=np.float64)
    if apps.ndim != 2 or apps.shape[1] != len(candidates):
        raise RoutingError(
            f"{len(candidates)} routable candidates but apps of shape "
            f"{apps.shape} at node {node.node_id}")
    # columns in branch-id order, so argmax's first maximum is the tie's
    # lowest branch id
    order = np.argsort([c.branch_id for c in candidates], kind="stable")
    ordered = apps[:, order]
    qualified = ordered > [candidates[j].thresholds.tau2 for j in order]
    best = np.where(qualified, ordered, -np.inf).argmax(axis=1)
    return np.where(qualified.any(axis=1), order[best], -1)


# Rows of a stream routed together.  A chunk holds every layer output of
# the block it runs, for its rows: at the default config the root block
# is the largest, about 23 KB a row, so 32 rows stay under 1 MB.  A
# row's predicted apps can differ in their last bits with the other rows
# of its chunk (see ``classify_batch``), so this size is part of what a
# rerun must hold to give the same log.
ROUTE_CHUNK = 32


def classify_batch(tree: CactusTree, images, mock_apps=None) -> list:
    """Route a batch of inputs depth by depth; one RouteDecision each.

    The root block runs once on the batch.  At every node each routable
    candidate's block runs once, and its predictor is called once, on
    the rows that reached that node: a predictor maps activations
    ``[n, *tap]`` to ``n`` applicabilities.  A row whose ``mock_apps``
    entry is not None takes that value for every candidate (regime
    replays and dry runs) and is never shown to a predictor.  One
    ``route_step`` call per node picks every row's child; the three-way
    verdict is rendered at the decision depth, and rows that reach a
    leaf are labelled by its head, once per leaf.

    A row's predicted apps depend in their last bits on the other rows
    of its batch: routed one at a time instead of in chunks of 32, 606 of
    the first 640 rows of a ``full``-size benchmark stream read other
    apps (by up to 5.4e-7), though no verdict moved.  So
    ``classify_or_flag`` on one image can differ in the last bits from
    the same image routed inside ``grow``'s chunks.
    """
    x = np.asarray(images, dtype=np.float32)
    n = len(x)
    mocks = [None] * n if mock_apps is None else list(mock_apps)
    if len(mocks) != n:
        raise RoutingError(f"{len(mocks)} mock apps for {n} inputs")
    decisions = [RouteDecision(Verdict.KNOWN, path=[tree.root.node_id])
                 for _ in range(n)]
    if not n:
        return decisions
    level = [(tree.root, np.arange(n), predict(tree.root.block, x))]
    depth = 0
    while level:
        depth += 1
        below = []
        for node, rows, act in level:
            if node.is_leaf:
                _label_rows(node, rows, act, decisions)
                continue
            candidates = [c for c in node.children if c.routable]
            if not candidates:
                raise ConfigError(
                    f"node {node.node_id} has children but none routable "
                    "(untrained predictors on the path)")
            cand_acts = [predict(c.block, act) for c in candidates]
            apps = _candidate_apps(candidates, cand_acts,
                                   [mocks[r] for r in rows])
            picks = route_step(node, apps)
            # the picked app, or the row's highest where none qualified
            logged = np.where(picks >= 0, apps[np.arange(len(rows)), picks],
                              apps.max(axis=1)).tolist()
            for i, (row, pick, app) in enumerate(zip(rows.tolist(), picks.tolist(),
                                                     logged)):
                decision = decisions[row]
                decision.apps.append(app)
                if pick < 0:
                    decision.verdict = Verdict.NONOBJECTIVE_UNKNOWN
                    decision.stopped_at = node.node_id
                    continue
                child = candidates[pick]
                decision.path.append(child.node_id)
                # route_step only picks children with app > tau2, so
                # decide() here is known or objective unknown, never
                # nonobjective
                if depth == tree.decision_depth and \
                        decide(app, child.thresholds) is Verdict.OBJECTIVE_UNKNOWN:
                    decision.verdict = Verdict.OBJECTIVE_UNKNOWN
                    picks[i] = -1  # stops here
            for j, (child, child_act) in enumerate(zip(candidates, cand_acts)):
                picked = np.flatnonzero(picks == j)
                if picked.size:
                    below.append((child, rows[picked], child_act[picked]))
        level = below
    return decisions


def _candidate_apps(candidates, cand_acts, mocks):
    """``[rows, candidates]`` applicabilities: one predictor call per
    candidate on the unmocked rows; mocked rows take their value."""
    apps = np.empty((len(mocks), len(candidates)))
    live = np.array([m is None for m in mocks])
    apps[~live] = np.array([m for m in mocks if m is not None],
                           dtype=np.float64)[:, None]
    if live.any():
        for j, (cand, act) in enumerate(zip(candidates, cand_acts)):
            got = np.asarray(cand.predictor(act[live]), dtype=np.float64)
            got = got.reshape(-1)
            if got.shape[0] != live.sum():
                raise RoutingError(
                    f"predictor of node {cand.node_id} returned {got.shape[0]} "
                    f"apps for {live.sum()} rows")
            apps[live, j] = got
    return apps


def _label_rows(node: CactusNode, rows, act, decisions):
    if node.head is None or not node.labels:
        raise ConfigError(f"leaf node {node.node_id} has no trained head")
    out = predict(node.head, act)
    for row, k in zip(rows, out.argmax(axis=1)):
        decisions[row].label = node.labels[int(k)]


def classify_or_flag(tree: CactusTree, image, mock_app=None) -> RouteDecision:
    """Descend the tree with one input and render the three-way verdict.

    ``mock_app`` substitutes the given value for every predictor call
    on this input (used for regime replays and dry runs).
    """
    return classify_batch(tree, np.asarray(image)[None], [mock_app])[0]


# ---------------------------------------------------------------------
# Branch creation and growth
# ---------------------------------------------------------------------

def _trunk_template(tree: CactusTree, at_node: CactusNode):
    """Blocks below ``at_node`` on the trunk, plus the trunk head."""
    chain = tree.trunk_chain()
    if at_node not in chain:
        raise RoutingError(f"node {at_node.node_id} is not on the trunk")
    below = chain[chain.index(at_node) + 1:]
    leaf = chain[-1]
    return [n.block for n in below], leaf.head


def create_branch(tree: CactusTree, at_node: CactusNode, seed: int) -> int:
    """Grow a fresh provisional branch off ``at_node``.

    The new subtree clones the remaining trunk architecture with freshly
    initialized parameters; the trunk itself is never touched.  The new
    leaf starts with an empty label set and a provisional new-class
    label.
    """
    blocks, head = _trunk_template(tree, at_node)
    if not blocks:
        raise RoutingError("cannot branch at the trunk leaf: nothing below it")
    branch_id = tree.next_branch_id
    tree.next_branch_id += 1
    label = f"new-class-{branch_id}"
    parent = at_node
    for i, block in enumerate(blocks):
        fresh = Network.build(block.specs, block.input_shape,
                              seed=derive_seed(seed, branch_id, i))
        node = CactusNode(node_id=tree.next_node_id, branch_id=branch_id,
                          block=fresh, provisional=True,
                          provisional_label=label, seed=seed)
        tree.next_node_id += 1
        tree.nodes[node.node_id] = node
        parent.children.append(node)
        parent = node
    if head is not None:
        parent.head = Network.build(head.specs, head.input_shape,
                                    seed=derive_seed(seed, branch_id, 0x4EAD))
    return branch_id


@dataclass
class GrowthLog:
    config: GrowthConfig
    decisions: list = field(default_factory=list)

    def verdict_counts(self):
        counts = {}
        for d in self.decisions:
            counts[d.verdict] = counts.get(d.verdict, 0) + 1
        return counts


def grow(tree: CactusTree, input_stream, growth_config: GrowthConfig) -> GrowthLog:
    """Route a stream in order, growing branches on nonobjective inputs.

    A below-threshold input feeds an existing provisional branch if that
    branch absorbed something within the last ``consolidation_window``
    below-threshold events at the node; otherwise a new branch is
    created (up to ``max_branches_per_node``), so a homogeneous burst of
    novel inputs consolidates into a single branch instead of one per
    image.  Every input is logged; the log replays to the same tree.
    A stream item is an ``(image, mock_app)`` pair, ``mock_app`` None
    for a predicted one (see ``classify_batch``).  The stream is routed
    ``ROUTE_CHUNK`` rows at a time, then growth folds over the decisions
    in input order.
    """
    items = list(input_stream)
    log = GrowthLog(growth_config)
    for lo in range(0, len(items), ROUTE_CHUNK):
        images, mocks = zip(*items[lo:lo + ROUTE_CHUNK])
        log.decisions.extend(classify_batch(tree, images, mocks))
    # Folding after routing is exact: growth never changes routing.  A
    # created branch is provisional and has no predictor, so it is never
    # routable (CactusNode.routable), and it only hangs off a node that
    # already had children.
    created = 0
    for index, decision in enumerate(log.decisions):
        decision.input_index = index
        if decision.verdict is Verdict.OBJECTIVE_UNKNOWN:
            decision.provisional_label = f"objective-unknown-{index}"
        elif decision.verdict is Verdict.NONOBJECTIVE_UNKNOWN:
            node = tree.nodes[decision.stopped_at]
            state = tree.growth_state.setdefault(
                node.node_id, {"events": 0, "last_absorb": {}})
            state["events"] += 1
            window = growth_config.consolidation_window
            active = [bid for bid, last in sorted(state["last_absorb"].items())
                      if state["events"] - last <= window]
            branch_children = [c for c in node.children if c.provisional]
            if active:
                bid = active[0]
                state["last_absorb"][bid] = state["events"]
                decision.routed_branch = bid
            elif len(branch_children) < growth_config.max_branches_per_node:
                bid = create_branch(tree, node, _creation_seed(growth_config, created))
                created += 1
                state["last_absorb"][bid] = state["events"]
                decision.branch_created = bid
                decision.routed_branch = bid
                decision.provisional_label = f"new-class-{bid}"
            else:
                decision.unrouted = True
    return log


def _creation_seed(growth_config: GrowthConfig, created: int) -> int:
    """The seed of the growth's ``created``-th new branch."""
    return derive_seed(growth_config.seed, 0x9120, created)


def replay_log(tree: CactusTree, log: GrowthLog) -> CactusTree:
    """Re-apply the creation events of a log to a copy of the initial
    tree; creation seeds are a pure function of creation order, so the
    replayed topology matches the grown tree exactly."""
    created = 0
    for d in log.decisions:
        if d.branch_created is not None:
            create_branch(tree, tree.nodes[d.stopped_at],
                          _creation_seed(log.config, created))
            created += 1
    return tree


# ---------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------

def save_tree(tree: CactusTree, out_dir):
    """JSON topology plus one checkpoint per node block/head, written to
    a sibling temp directory that then replaces ``out_dir`` whole: no
    older file survives, and a killed save leaves one whole tree (at
    ``.<name>.old`` if killed between the renames), never a mix."""
    out = Path(out_dir)
    tmp, old = (out.with_name(f".{out.name}.{tag}") for tag in ("tmp", "old"))
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir(parents=True)

    def refs(node):
        return {"block": f"node_{node.node_id}.ckpt",
                "head": None if node.head is None else f"head_{node.node_id}.ckpt"}

    for _, node in sorted(tree.nodes.items()):
        ref = refs(node)
        checkpoint_save(node.block, tmp / ref["block"])
        if ref["head"] is not None:
            checkpoint_save(node.head, tmp / ref["head"])
    write_json(tmp / "tree.json", {"decision_depth": tree.decision_depth,
                                   "root": _describe(tree.root, None, refs)})
    if out.exists():
        out.rename(old)
    tmp.rename(out)
    shutil.rmtree(old, ignore_errors=True)


def load_tree(tree_dir) -> CactusTree:
    """Rebuild a tree from ``save_tree`` output, without predictors (the
    experiment runner checkpoints those separately)."""
    root_dir = Path(tree_dir)
    with open(root_dir / "tree.json", encoding="utf-8") as fh:
        doc = json.load(fh)

    def restore(desc):
        node = CactusNode(
            block=checkpoint_load(root_dir / desc["block"]),
            head=checkpoint_load(root_dir / desc["head"]) if desc["head"] else None,
            **{name: _or_none(load, desc[name])
               for name, (_, load) in _NODE_FIELDS.items()})
        node.children = [restore(c) for c in desc["children"]]
        return node

    return CactusTree(restore(doc["root"]), doc["decision_depth"])


# ---------------------------------------------------------------------
# Growth-log persistence (JSON lines, one decision per line)
# ---------------------------------------------------------------------

# One decision line: ``json.dumps(d.to_dict(), sort_keys=True)`` spelled
# out over RouteDecision's fields, in sorted key order
_DECISION_LINE = (
    '{{"apps": [{apps}], "branch_created": {branch_created}, '
    '"input_index": {input_index}, "label": {label}, "path": [{path}], '
    '"provisional_label": {provisional_label}, "routed_branch": {routed_branch}, '
    '"stopped_at": {stopped_at}, "unrouted": {unrouted}, "verdict": {verdict}}}\n')


def _int_or_null(value):
    return "null" if value is None else repr(value)


def save_growth_log(log: GrowthLog, path):
    """A header line with the growth config, then one line per decision,
    each the bytes ``json.dumps(d.to_dict(), sort_keys=True)`` gives,
    written from ``_DECISION_LINE``: floats by ``repr`` and strings by
    ``encode_basestring_ascii``, as ``json`` writes them.  ``repr`` and
    ``json`` differ only on non-finite floats, and routed apps are
    finite: predictors clamp to [0, 1], and a stream's mock apps are
    checked to lie in it."""
    with atomic_open(path, encoding="utf-8") as fh:
        fh.write(json.dumps({"config": asdict(log.config)}, sort_keys=True) + "\n")
        fh.writelines(_DECISION_LINE.format(
            apps=", ".join([repr(float(a)) for a in d.apps]),
            branch_created=_int_or_null(d.branch_created),
            input_index=_int_or_null(d.input_index),
            label=_int_or_null(d.label),
            path=", ".join(map(repr, d.path)),
            provisional_label="null" if d.provisional_label is None
            else encode_basestring_ascii(d.provisional_label),
            routed_branch=_int_or_null(d.routed_branch),
            stopped_at=_int_or_null(d.stopped_at),
            unrouted="true" if d.unrouted else "false",
            verdict=encode_basestring_ascii(d.verdict.value)) for d in log.decisions)


def load_growth_log(path) -> GrowthLog:
    """The log at ``path``; a file that is not one raises ``DataError``
    naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            header, *docs = [json.loads(line) for line in fh if line.strip()]
            log = GrowthLog(GrowthConfig(**header["config"]))
            log.decisions = [RouteDecision(**{**doc, "verdict": Verdict(doc["verdict"])})
                             for doc in docs]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path} is not a growth log: {exc!r}") from exc
    return log
